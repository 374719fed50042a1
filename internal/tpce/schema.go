// Package tpce implements a reduced-but-faithful TPC-E brokerage workload:
// the ten transaction types in the ERMIA paper's TPC-E mix with read/write
// footprints matching the spec's profile (~10:1 read/write ratio), plus the
// paper's synthesized AssetEval read-mostly transaction (§4.2, TPC-E-hybrid).
//
// AssetEval evaluates aggregate assets for a group of customer accounts by
// joining HoldingSummary and LastTrade, inserting the results into the new
// AssetHistory table; its contention against TradeResult and MarketFeed
// (which update HoldingSummary and LastTrade) is the workload's heart. The
// footprint knob is the size of the scanned account group, as a percentage
// of the CustomerAccount table.
package tpce

import "ermia/internal/codec"

// Table names.
const (
	TableCustomer     = "customer"
	TableAccount      = "customer_account"
	TableBroker       = "broker"
	TableSecurity     = "security"
	TableCompany      = "company"
	TableLastTrade    = "last_trade"
	TableTrade        = "trade"
	TableTradeByAcct  = "trade_by_account"
	TableTradeHistory = "trade_history"
	TableHoldingSum   = "holding_summary"
	TableHolding      = "holding"
	TableWatchItem    = "watch_item"
	TableAssetHistory = "asset_history"
)

// Trade status codes.
const (
	TradePending   = 1
	TradeCompleted = 2
	TradeCanceled  = 3
)

// Customer is one CUSTOMER row.
type Customer struct {
	Name string
	Tier uint64
}

// Encode serializes the row.
func (c *Customer) Encode(e *codec.TupleEncoder) []byte {
	return e.Reset().String(c.Name).Uint64(c.Tier).Clone()
}

// DecodeCustomer parses a CUSTOMER row.
func DecodeCustomer(b []byte) Customer {
	d := codec.DecodeTuple(b)
	return Customer{Name: d.String(), Tier: d.Uint64()}
}

// Account is one CUSTOMER_ACCOUNT row.
type Account struct {
	CustomerID uint64
	BrokerID   uint64
	Balance    float64
	Name       string
}

// Encode serializes the row.
func (a *Account) Encode(e *codec.TupleEncoder) []byte {
	return e.Reset().Uint64(a.CustomerID).Uint64(a.BrokerID).Float(a.Balance).String(a.Name).Clone()
}

// DecodeAccount parses a CUSTOMER_ACCOUNT row.
func DecodeAccount(b []byte) Account {
	d := codec.DecodeTuple(b)
	return Account{CustomerID: d.Uint64(), BrokerID: d.Uint64(), Balance: d.Float(), Name: d.String()}
}

// Broker is one BROKER row.
type Broker struct {
	Name       string
	NumTrades  uint64
	Commission float64
}

// Encode serializes the row.
func (br *Broker) Encode(e *codec.TupleEncoder) []byte {
	return e.Reset().String(br.Name).Uint64(br.NumTrades).Float(br.Commission).Clone()
}

// DecodeBroker parses a BROKER row.
func DecodeBroker(b []byte) Broker {
	d := codec.DecodeTuple(b)
	return Broker{Name: d.String(), NumTrades: d.Uint64(), Commission: d.Float()}
}

// Security is one SECURITY row.
type Security struct {
	Symbol    string
	CompanyID uint64
	Issue     string
}

// Encode serializes the row.
func (s *Security) Encode(e *codec.TupleEncoder) []byte {
	return e.Reset().String(s.Symbol).Uint64(s.CompanyID).String(s.Issue).Clone()
}

// DecodeSecurity parses a SECURITY row.
func DecodeSecurity(b []byte) Security {
	d := codec.DecodeTuple(b)
	return Security{Symbol: d.String(), CompanyID: d.Uint64(), Issue: d.String()}
}

// Company is one COMPANY row.
type Company struct {
	Name     string
	Industry string
}

// Encode serializes the row.
func (c *Company) Encode(e *codec.TupleEncoder) []byte {
	return e.Reset().String(c.Name).String(c.Industry).Clone()
}

// LastTrade is one LAST_TRADE row, the per-security market price.
type LastTrade struct {
	Price  float64
	Volume uint64
	DTS    uint64
}

// Encode serializes the row.
func (lt *LastTrade) Encode(e *codec.TupleEncoder) []byte {
	return e.Reset().Float(lt.Price).Uint64(lt.Volume).Uint64(lt.DTS).Clone()
}

// DecodeLastTrade parses a LAST_TRADE row.
func DecodeLastTrade(b []byte) LastTrade {
	d := codec.DecodeTuple(b)
	return LastTrade{Price: d.Float(), Volume: d.Uint64(), DTS: d.Uint64()}
}

// Trade is one TRADE row.
type Trade struct {
	AccountID  uint64
	SecurityID uint64
	Buy        bool
	Quantity   uint64
	Price      float64
	Status     uint64
	DTS        uint64
}

// Encode serializes the row.
func (t *Trade) Encode(e *codec.TupleEncoder) []byte {
	buy := uint64(0)
	if t.Buy {
		buy = 1
	}
	return e.Reset().Uint64(t.AccountID).Uint64(t.SecurityID).Uint64(buy).
		Uint64(t.Quantity).Float(t.Price).Uint64(t.Status).Uint64(t.DTS).Clone()
}

// DecodeTrade parses a TRADE row.
func DecodeTrade(b []byte) Trade {
	d := codec.DecodeTuple(b)
	return Trade{
		AccountID: d.Uint64(), SecurityID: d.Uint64(), Buy: d.Uint64() == 1,
		Quantity: d.Uint64(), Price: d.Float(), Status: d.Uint64(), DTS: d.Uint64(),
	}
}

// HoldingSummary is one HOLDING_SUMMARY row: an account's net position in
// one security.
type HoldingSummary struct {
	Quantity int64
}

// Encode serializes the row.
func (h *HoldingSummary) Encode(e *codec.TupleEncoder) []byte {
	return e.Reset().Int64(h.Quantity).Clone()
}

// DecodeHoldingSummary parses a HOLDING_SUMMARY row.
func DecodeHoldingSummary(b []byte) HoldingSummary {
	return HoldingSummary{Quantity: codec.DecodeTuple(b).Int64()}
}

// ---- Keys ----

// CustomerKey builds the CUSTOMER primary key.
func CustomerKey(c uint64) []byte { return codec.NewKey(8).Uint64(c).Bytes() }

// AccountKey builds the CUSTOMER_ACCOUNT primary key. Account ids are
// dense, so a contiguous range is an account group.
func AccountKey(ca uint64) []byte { return codec.NewKey(8).Uint64(ca).Bytes() }

// BrokerKey builds the BROKER primary key.
func BrokerKey(b uint64) []byte { return codec.NewKey(8).Uint64(b).Bytes() }

// SecurityKey builds the SECURITY primary key.
func SecurityKey(s uint64) []byte { return codec.NewKey(8).Uint64(s).Bytes() }

// CompanyKey builds the COMPANY primary key.
func CompanyKey(co uint64) []byte { return codec.NewKey(8).Uint64(co).Bytes() }

// LastTradeKey builds the LAST_TRADE primary key.
func LastTradeKey(s uint64) []byte { return codec.NewKey(8).Uint64(s).Bytes() }

// TradeKey builds the TRADE primary key.
func TradeKey(t uint64) []byte { return codec.NewKey(8).Uint64(t).Bytes() }

// TradeByAcctKey builds the trade-by-account secondary key.
func TradeByAcctKey(ca, t uint64) []byte {
	return codec.NewKey(16).Uint64(ca).Uint64(t).Bytes()
}

// TradeByAcctPrefix bounds one account's trade scan.
func TradeByAcctPrefix(ca uint64) ([]byte, []byte) {
	lo := codec.NewKey(16).Uint64(ca).Uint64(0).Clone()
	hi := codec.NewKey(16).Uint64(ca).Uint64(^uint64(0)).Clone()
	return lo, hi
}

// TradeHistoryKey builds the TRADE_HISTORY primary key.
func TradeHistoryKey(t, seq uint64) []byte {
	return codec.NewKey(16).Uint64(t).Uint64(seq).Bytes()
}

// HoldingSumKey builds the HOLDING_SUMMARY primary key.
func HoldingSumKey(ca, s uint64) []byte {
	return codec.NewKey(16).Uint64(ca).Uint64(s).Bytes()
}

// HoldingSumPrefix bounds one account's holding scan.
func HoldingSumPrefix(ca uint64) ([]byte, []byte) {
	lo := codec.NewKey(16).Uint64(ca).Uint64(0).Clone()
	hi := codec.NewKey(16).Uint64(ca).Uint64(^uint64(0)).Clone()
	return lo, hi
}

// HoldingKey builds the HOLDING primary key.
func HoldingKey(ca, s, t uint64) []byte {
	return codec.NewKey(24).Uint64(ca).Uint64(s).Uint64(t).Bytes()
}

// WatchItemKey builds the WATCH_ITEM primary key.
func WatchItemKey(c, seq uint64) []byte {
	return codec.NewKey(16).Uint64(c).Uint64(seq).Bytes()
}

// WatchItemPrefix bounds one customer's watch list.
func WatchItemPrefix(c uint64) ([]byte, []byte) {
	lo := codec.NewKey(16).Uint64(c).Uint64(0).Clone()
	hi := codec.NewKey(16).Uint64(c).Uint64(^uint64(0)).Clone()
	return lo, hi
}

// AssetHistoryKey builds the ASSET_HISTORY primary key.
func AssetHistoryKey(ca, seq uint64) []byte {
	return codec.NewKey(16).Uint64(ca).Uint64(seq).Bytes()
}
