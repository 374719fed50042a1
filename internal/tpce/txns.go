package tpce

import (
	"errors"

	"ermia/internal/codec"
	"ermia/internal/engine"
	"ermia/internal/xrand"
)

// runBrokerVolume (read-only): aggregate trade activity for a set of
// brokers.
func (d *Driver) runBrokerVolume(worker int, rng *xrand.Rand) error {
	txn := d.db.BeginReadOnly(worker)
	n := rng.Range(10, 30)
	if n > d.cfg.Brokers {
		n = d.cfg.Brokers
	}
	start := rng.Intn(d.cfg.Brokers)
	var volume uint64
	for i := 0; i < n; i++ {
		b := uint64((start + i) % d.cfg.Brokers)
		v, err := txn.Get(d.broker, BrokerKey(b))
		if errors.Is(err, engine.ErrNotFound) {
			continue // not yet in this read-only snapshot epoch
		}
		if err != nil {
			txn.Abort()
			return err
		}
		volume += DecodeBroker(v).NumTrades
	}
	_ = volume
	return txn.Commit()
}

// runCustomerPosition (read-only): a customer's accounts valued at market.
func (d *Driver) runCustomerPosition(worker int, rng *xrand.Rand) error {
	c := uint64(rng.Intn(d.cfg.Customers))
	txn := d.db.BeginReadOnly(worker)
	if _, err := txn.Get(d.customer, CustomerKey(c)); err != nil {
		txn.Abort()
		if errors.Is(err, engine.ErrNotFound) {
			return nil // not yet in this read-only snapshot epoch
		}
		return err
	}
	for a := 0; a < d.cfg.AccountsPerCustomer; a++ {
		ca := c*uint64(d.cfg.AccountsPerCustomer) + uint64(a)
		if _, err := txn.Get(d.account, AccountKey(ca)); err != nil {
			if errors.Is(err, engine.ErrNotFound) {
				continue
			}
			txn.Abort()
			return err
		}
		if err := d.valueAccount(txn, ca, nil); err != nil {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}

// valueAccount joins HoldingSummary × LastTrade for one account; total (if
// non-nil) accumulates the market value.
func (d *Driver) valueAccount(txn engine.Txn, ca uint64, total *float64) error {
	lo, hi := HoldingSumPrefix(ca)
	type hs struct {
		sec uint64
		qty int64
	}
	var holdings []hs
	if err := txn.Scan(d.holdingSum, lo, hi, func(k, v []byte) bool {
		kd := codec.DecodeKey(k)
		kd.Uint64()
		holdings = append(holdings, hs{kd.Uint64(), DecodeHoldingSummary(v).Quantity})
		return true
	}); err != nil {
		return err
	}
	for _, h := range holdings {
		v, err := txn.Get(d.lastTrade, LastTradeKey(h.sec))
		if err != nil {
			return err
		}
		if total != nil {
			*total += float64(h.qty) * DecodeLastTrade(v).Price
		}
	}
	return nil
}

// runMarketFeed (read-write): a market data tick updating LAST_TRADE for a
// batch of securities.
func (d *Driver) runMarketFeed(worker int, rng *xrand.Rand) error {
	txn := d.db.Begin(worker)
	enc := codec.NewTuple(64)
	n := 20
	if n > d.cfg.Securities {
		n = d.cfg.Securities
	}
	start := rng.Intn(d.cfg.Securities)
	for i := 0; i < n; i++ {
		s := uint64((start + i) % d.cfg.Securities)
		key := LastTradeKey(s)
		v, err := txn.Get(d.lastTrade, key)
		if err != nil {
			txn.Abort()
			return err
		}
		lt := DecodeLastTrade(v)
		lt.Price *= 1 + (rng.Float64()-0.5)/50
		lt.Volume += uint64(rng.Range(100, 1000))
		lt.DTS++
		if err := txn.Update(d.lastTrade, key, lt.Encode(enc)); err != nil {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}

// runMarketWatch (read-only): percentage change of a customer's watch list.
func (d *Driver) runMarketWatch(worker int, rng *xrand.Rand) error {
	c := uint64(rng.Intn(d.cfg.Customers))
	txn := d.db.BeginReadOnly(worker)
	lo, hi := WatchItemPrefix(c)
	var secs []uint64
	if err := txn.Scan(d.watchItem, lo, hi, func(k, v []byte) bool {
		secs = append(secs, codec.DecodeTuple(v).Uint64())
		return true
	}); err != nil {
		txn.Abort()
		return err
	}
	for _, s := range secs {
		if _, err := txn.Get(d.lastTrade, LastTradeKey(s)); err != nil &&
			!errors.Is(err, engine.ErrNotFound) {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}

// runSecurityDetail (read-only): one security with its company and price.
func (d *Driver) runSecurityDetail(worker int, rng *xrand.Rand) error {
	s := uint64(rng.Intn(d.cfg.Securities))
	txn := d.db.BeginReadOnly(worker)
	v, err := txn.Get(d.security, SecurityKey(s))
	if err != nil {
		txn.Abort()
		if errors.Is(err, engine.ErrNotFound) {
			return nil // not yet in this read-only snapshot epoch
		}
		return err
	}
	sec := DecodeSecurity(v)
	if _, err := txn.Get(d.company, CompanyKey(sec.CompanyID)); err != nil &&
		!errors.Is(err, engine.ErrNotFound) {
		txn.Abort()
		return err
	}
	if _, err := txn.Get(d.lastTrade, LastTradeKey(s)); err != nil &&
		!errors.Is(err, engine.ErrNotFound) {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

// runTradeLookup (read-only): an account's recent trades with history.
func (d *Driver) runTradeLookup(worker int, rng *xrand.Rand) error {
	ca := uint64(rng.Intn(d.cfg.Accounts()))
	txn := d.db.BeginReadOnly(worker)
	lo, hi := TradeByAcctPrefix(ca)
	var tids []uint64
	if err := txn.Scan(d.tradeByAcct, lo, hi, func(k, v []byte) bool {
		tids = append(tids, codec.DecodeTuple(v).Uint64())
		return len(tids) < 20
	}); err != nil {
		txn.Abort()
		return err
	}
	for _, tid := range tids {
		if _, err := txn.Get(d.trade, TradeKey(tid)); err != nil {
			if errors.Is(err, engine.ErrNotFound) {
				continue
			}
			txn.Abort()
			return err
		}
		if _, err := txn.Get(d.tradeHistory, TradeHistoryKey(tid, 0)); err != nil &&
			!errors.Is(err, engine.ErrNotFound) {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}

// runTradeOrder (read-write): submit a new pending trade.
func (d *Driver) runTradeOrder(worker int, rng *xrand.Rand) error {
	ca := uint64(rng.Intn(d.cfg.Accounts()))
	s := uint64(rng.Intn(d.cfg.Securities))
	txn := d.db.Begin(worker)
	enc := codec.NewTuple(64)

	av, err := txn.Get(d.account, AccountKey(ca))
	if err != nil {
		txn.Abort()
		return err
	}
	acct := DecodeAccount(av)
	if _, err := txn.Get(d.customer, CustomerKey(acct.CustomerID)); err != nil {
		txn.Abort()
		return err
	}
	ltv, err := txn.Get(d.lastTrade, LastTradeKey(s))
	if err != nil {
		txn.Abort()
		return err
	}
	price := DecodeLastTrade(ltv).Price

	tid := d.nextTrade.Add(1)
	tr := Trade{
		AccountID: ca, SecurityID: s, Buy: rng.Bool(0.5),
		Quantity: uint64(rng.Range(100, 800)), Price: price,
		Status: TradePending, DTS: tid,
	}
	if err := txn.Insert(d.trade, TradeKey(tid), tr.Encode(enc)); err != nil {
		txn.Abort()
		return err
	}
	if err := txn.Insert(d.tradeByAcct, TradeByAcctKey(ca, tid),
		enc.Reset().Uint64(tid).Clone()); err != nil {
		txn.Abort()
		return err
	}
	if err := txn.Insert(d.tradeHistory, TradeHistoryKey(tid, 0),
		enc.Reset().Uint64(TradePending).Uint64(tid).Clone()); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

// runTradeResult (read-write): complete a pending trade, updating holdings,
// market price, account balance, and broker stats — the main contention
// source against AssetEval (HoldingSummary and LastTrade).
func (d *Driver) runTradeResult(worker int, rng *xrand.Rand) error {
	max := d.nextTrade.Load()
	if max == 0 {
		return nil
	}
	// Pick a recent trade; completed ones are treated as a no-op result
	// (the market already settled them).
	window := uint64(5000)
	lo := uint64(1)
	if max > window {
		lo = max - window
	}
	tid := lo + uint64(rng.Intn(int(max-lo+1)))

	txn := d.db.Begin(worker)
	enc := codec.NewTuple(64)

	tv, err := txn.Get(d.trade, TradeKey(tid))
	if err != nil {
		if errors.Is(err, engine.ErrNotFound) {
			txn.Abort()
			return nil // id raced ahead of the insert
		}
		txn.Abort()
		return err
	}
	tr := DecodeTrade(tv)
	if tr.Status != TradePending {
		txn.Abort()
		return nil
	}
	tr.Status = TradeCompleted
	if err := txn.Update(d.trade, TradeKey(tid), tr.Encode(enc)); err != nil {
		txn.Abort()
		return err
	}

	// Position change.
	hsKey := HoldingSumKey(tr.AccountID, tr.SecurityID)
	delta := int64(tr.Quantity)
	if !tr.Buy {
		delta = -delta
	}
	if hv, err := txn.Get(d.holdingSum, hsKey); err == nil {
		hs := DecodeHoldingSummary(hv)
		hs.Quantity += delta
		if err := txn.Update(d.holdingSum, hsKey, hs.Encode(enc)); err != nil {
			txn.Abort()
			return err
		}
	} else if errors.Is(err, engine.ErrNotFound) {
		hs := HoldingSummary{Quantity: delta}
		if err := txn.Insert(d.holdingSum, hsKey, hs.Encode(enc)); err != nil {
			txn.Abort()
			if errors.Is(err, engine.ErrDuplicate) {
				// Another TradeResult on the same account and security
				// inserted the summary after our read found none. Silo
				// reports that as a duplicate; it is a conflict, and a retry
				// reads the summary.
				err = engine.ErrWriteConflict
			}
			return err
		}
	} else {
		txn.Abort()
		return err
	}
	if err := txn.Insert(d.holding, HoldingKey(tr.AccountID, tr.SecurityID, tid),
		enc.Reset().Uint64(tr.Quantity).Float(tr.Price).Uint64(tid).Clone()); err != nil &&
		!errors.Is(err, engine.ErrDuplicate) {
		txn.Abort()
		return err
	}

	// Market price moves.
	ltKey := LastTradeKey(tr.SecurityID)
	ltv, err := txn.Get(d.lastTrade, ltKey)
	if err != nil {
		txn.Abort()
		return err
	}
	lt := DecodeLastTrade(ltv)
	lt.Price = tr.Price * (1 + (rng.Float64()-0.5)/100)
	lt.Volume += tr.Quantity
	lt.DTS++
	if err := txn.Update(d.lastTrade, ltKey, lt.Encode(enc)); err != nil {
		txn.Abort()
		return err
	}

	// Settle the account and credit the broker.
	aKey := AccountKey(tr.AccountID)
	av, err := txn.Get(d.account, aKey)
	if err != nil {
		txn.Abort()
		return err
	}
	acct := DecodeAccount(av)
	amount := float64(tr.Quantity) * tr.Price
	if tr.Buy {
		acct.Balance -= amount
	} else {
		acct.Balance += amount
	}
	if err := txn.Update(d.account, aKey, acct.Encode(enc)); err != nil {
		txn.Abort()
		return err
	}
	bKey := BrokerKey(acct.BrokerID)
	bv, err := txn.Get(d.broker, bKey)
	if err != nil {
		txn.Abort()
		return err
	}
	br := DecodeBroker(bv)
	br.NumTrades++
	br.Commission += amount * 0.001
	if err := txn.Update(d.broker, bKey, br.Encode(enc)); err != nil {
		txn.Abort()
		return err
	}
	if err := txn.Insert(d.tradeHistory, TradeHistoryKey(tid, 1),
		enc.Reset().Uint64(TradeCompleted).Uint64(tid).Clone()); err != nil &&
		!errors.Is(err, engine.ErrDuplicate) {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

// runTradeStatus (read-only): the latest trades of an account.
func (d *Driver) runTradeStatus(worker int, rng *xrand.Rand) error {
	ca := uint64(rng.Intn(d.cfg.Accounts()))
	txn := d.db.BeginReadOnly(worker)
	lo, hi := TradeByAcctPrefix(ca)
	n := 0
	var innerErr error
	if err := txn.Scan(d.tradeByAcct, lo, hi, func(k, v []byte) bool {
		tid := codec.DecodeTuple(v).Uint64()
		if _, err := txn.Get(d.trade, TradeKey(tid)); err != nil {
			if !errors.Is(err, engine.ErrNotFound) {
				innerErr = err
				return false
			}
		} else {
			n++
		}
		return n < 10
	}); err != nil {
		txn.Abort()
		return err
	}
	if innerErr != nil {
		txn.Abort()
		return innerErr
	}
	return txn.Commit()
}

// runTradeUpdate (read-write): amend recent trade records.
func (d *Driver) runTradeUpdate(worker int, rng *xrand.Rand) error {
	max := d.nextTrade.Load()
	if max == 0 {
		return nil
	}
	txn := d.db.Begin(worker)
	enc := codec.NewTuple(64)
	for i := 0; i < 3; i++ {
		tid := 1 + uint64(rng.Intn(int(max)))
		key := TradeHistoryKey(tid, 0)
		if _, err := txn.Get(d.tradeHistory, key); err != nil {
			if errors.Is(err, engine.ErrNotFound) {
				continue
			}
			txn.Abort()
			return err
		}
		if err := txn.Update(d.tradeHistory, key,
			enc.Reset().Uint64(TradePending).Uint64(tid+1).Clone()); err != nil {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}

// runAssetEval is the paper's synthesized read-mostly transaction: scan a
// contiguous group of customer accounts sized by AssetEvalSizePct, value
// each by joining HoldingSummary × LastTrade, and insert the result into
// AssetHistory. Most contention comes from TradeResult and MarketFeed.
func (d *Driver) runAssetEval(worker int, rng *xrand.Rand) error {
	accounts := d.cfg.Accounts()
	span := accounts * d.cfg.AssetEvalSizePct / 100
	if span < 1 {
		span = 1
	}
	start := 0
	if span < accounts {
		start = rng.Intn(accounts - span + 1)
	}

	txn := d.db.Begin(worker)
	enc := codec.NewTuple(64)
	for ca := uint64(start); ca < uint64(start+span); ca++ {
		if _, err := txn.Get(d.account, AccountKey(ca)); err != nil {
			txn.Abort()
			return err
		}
		total := 0.0
		if err := d.valueAccount(txn, ca, &total); err != nil {
			txn.Abort()
			return err
		}
		seq := d.assetSeq[worker&255].n.Add(1)
		key := AssetHistoryKey(ca, seq<<8|uint64(worker&255))
		if err := txn.Insert(d.assetHistory, key,
			enc.Reset().Float(total).Uint64(seq).Clone()); err != nil {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}
