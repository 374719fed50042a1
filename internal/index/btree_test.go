package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestInsertGet(t *testing.T) {
	tr := New[int]()
	const n = 1000
	for i := 0; i < n; i++ {
		if !tr.Insert(key(i), i) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v != i {
			t.Fatalf("get %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("found missing key")
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := New[string]()
	tr.Insert([]byte("k"), "first")
	if tr.Insert([]byte("k"), "second") {
		t.Fatal("duplicate insert succeeded")
	}
	existing, inserted := tr.InsertIfAbsent([]byte("k"), "third")
	if inserted || existing != "first" {
		t.Fatalf("InsertIfAbsent returned (%q, %v)", existing, inserted)
	}
	if v, _ := tr.Get([]byte("k")); v != "first" {
		t.Fatalf("value clobbered: %q", v)
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	const n = 500
	for i := 0; i < n; i++ {
		tr.Insert(key(i), i)
	}
	for i := 0; i < n; i += 2 {
		if tr.DeleteIf(key(i), i+1) {
			t.Fatalf("delete %d succeeded against the wrong value", i)
		}
		if !tr.DeleteIf(key(i), i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.DeleteIf(key(0), 0) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != n/2 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(key(i))
		if (i%2 == 0) == ok {
			t.Fatalf("key %d: present=%v", i, ok)
		}
	}
}

func TestRandomAgainstModel(t *testing.T) {
	tr := New[int]()
	model := map[string]int{}
	// First a leaf with no free slot: 64 live keys in 64 used slots, as the
	// root before its first split. Rebinding must work there, and must not
	// take a slot.
	for i := 0; i < maxKeys; i++ {
		tr.Insert(key(i*31), i)
		model[string(key(i*31))] = i
	}
	if root := tr.root.ptr.Load(); !root.leaf || root.live != maxKeys || len(root.slots) != maxKeys {
		t.Fatalf("setup: leaf=%v live=%d slots=%d, want a full leaf", root.leaf, root.live, len(root.slots))
	}
	for i := 0; i < maxKeys; i++ {
		if !tr.Replace(key(i*31), i, 100000+i) {
			t.Fatalf("replace of key %d in a full leaf failed", i*31)
		}
		model[string(key(i*31))] = 100000 + i
	}
	if root := tr.root.ptr.Load(); root.live != maxKeys || len(root.slots) != maxKeys {
		t.Fatalf("replace changed the leaf's shape: live=%d slots=%d", root.live, len(root.slots))
	}
	// A removal leaves the slots used up: the next insert compacts, carrying
	// the rebound values with it.
	if !tr.DeleteIf(key(0), 100000) || !tr.Insert(key(1), 1) {
		t.Fatal("delete or insert in the rebound leaf failed")
	}
	delete(model, string(key(0)))
	model[string(key(1))] = 1
	assertModel(t, tr, model)
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		k := key(rng.Intn(2000))
		switch rng.Intn(4) {
		case 0:
			_, inserted := tr.InsertIfAbsent(k, op)
			_, exists := model[string(k)]
			if inserted == exists {
				t.Fatalf("op %d: inserted=%v but exists=%v", op, inserted, exists)
			}
			if inserted {
				model[string(k)] = op
			}
		case 1:
			// Half the conditional deletes name the bound value, half a stale one.
			mv, exists := model[string(k)]
			stale := rng.Intn(2) == 0
			if stale {
				mv = -1
			}
			if deleted := tr.DeleteIf(k, mv); deleted != (exists && !stale) {
				t.Fatalf("op %d: deleted=%v exists=%v stale=%v", op, deleted, exists, stale)
			} else if deleted {
				delete(model, string(k))
			}
		case 2:
			mv, exists := model[string(k)]
			if tr.Replace(k, -1, op) {
				t.Fatalf("op %d: replace against a stale value succeeded", op)
			}
			if replaced := tr.Replace(k, mv, op); replaced != exists {
				t.Fatalf("op %d: replaced=%v exists=%v", op, replaced, exists)
			} else if replaced {
				model[string(k)] = op
			}
		default:
			v, ok := tr.Get(k)
			mv, exists := model[string(k)]
			if ok != exists || (ok && v != mv) {
				t.Fatalf("op %d: get=(%d,%v) model=(%d,%v)", op, v, ok, mv, exists)
			}
		}
	}
	assertModel(t, tr, model)
}

// assertModel checks that tr holds exactly model, by Len, Get and a full
// scan in key order.
func assertModel(t *testing.T, tr *Tree[int], model map[string]int) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("len %d vs model %d", tr.Len(), len(model))
	}
	for k, mv := range model {
		if v, ok := tr.Get([]byte(k)); !ok || v != mv {
			t.Fatalf("get %q = (%d, %v), model %d", k, v, ok, mv)
		}
	}
	// Full scan must agree with the sorted model.
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	i := 0
	tr.Scan(nil, nil, nil, func(k []byte, v int) bool {
		if i >= len(wantKeys) || string(k) != wantKeys[i] || v != model[wantKeys[i]] {
			t.Fatalf("scan diverges at %d: %q", i, k)
		}
		i++
		return true
	})
	if i != len(wantKeys) {
		t.Fatalf("scan visited %d of %d", i, len(wantKeys))
	}
}

func TestScanRange(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), i)
	}
	var got []int
	tr.Scan(key(100), key(200), nil, func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("range scan got %d items, first=%d last=%d", len(got), got[0], got[len(got)-1])
	}
	// Early stop.
	got = got[:0]
	tr.Scan(key(0), nil, nil, func(k []byte, v int) bool {
		got = append(got, v)
		return len(got) < 10
	})
	if len(got) != 10 {
		t.Fatalf("limited scan got %d", len(got))
	}
	// Empty range.
	count := 0
	tr.Scan(key(5000), key(6000), nil, func([]byte, int) bool {
		count++
		return true
	})
	if count != 0 {
		t.Fatalf("empty range scanned %d", count)
	}
}

func TestHandleInvalidation(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10; i++ {
		tr.Insert(key(i), i)
	}
	_, _, h := tr.GetH(key(5))
	if !h.Valid() {
		t.Fatal("fresh handle invalid")
	}
	// An unrelated faraway key may share the leaf in a small tree; use a
	// direct neighbour to guarantee same-leaf invalidation.
	tr.Insert(key(5000), 5000)
	if h.Valid() {
		t.Fatal("handle survived an insert into its leaf")
	}
	// Removing a dead key or rebinding one changes nothing a reader may see:
	// the handle stays valid, until the next insert.
	_, _, h2 := tr.GetH(key(5))
	if !tr.DeleteIf(key(5), 5) || !tr.Replace(key(6), 6, 60) {
		t.Fatal("conditional delete or replace failed")
	}
	if !h2.Valid() {
		t.Fatal("handle invalidated by a dead-key removal")
	}
	tr.Insert(key(5), 55)
	if h2.Valid() {
		t.Fatal("handle survived the re-insert of the removed key")
	}
}

// A handle must stay invalid however the leaf changes afterwards: versions
// only grow, through leaf splits and the root turning into an inner node.
func TestHandleNeverRevalidates(t *testing.T) {
	tr := New[int]()
	tr.Insert(key(0), 0)
	_, _, h := tr.GetH(key(0)) // the root, as a leaf
	tr.Insert(key(1), 1)
	for i := 2; i < 1000; i++ {
		if h.Valid() {
			t.Fatalf("stale handle valid again after %d inserts", i)
		}
		tr.Insert(key(i), i)
		if i%3 == 0 {
			tr.DeleteIf(key(i-1), i-1)
		}
	}
}

func TestHandleMissTracksPhantom(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10; i += 2 {
		tr.Insert(key(i), i)
	}
	_, ok, h := tr.GetH(key(5)) // absent
	if ok {
		t.Fatal("key 5 should be absent")
	}
	if !h.Valid() {
		t.Fatal("miss handle invalid")
	}
	tr.Insert(key(5), 5) // the phantom arrives
	if h.Valid() {
		t.Fatal("handle still valid after phantom insert")
	}
}

func TestScanNodeSet(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 500; i++ {
		tr.Insert(key(i), i)
	}
	var handles []Handle[int]
	tr.Scan(key(100), key(300), func(h Handle[int]) { handles = append(handles, h) },
		func([]byte, int) bool { return true })
	if len(handles) == 0 {
		t.Fatal("no node set collected")
	}
	for _, h := range handles {
		if !h.Valid() {
			t.Fatal("handle invalid right after scan")
		}
	}
	// Inserting into the scanned range must invalidate some handle.
	tr.Insert(key(150)[:len(key(150))-1], -1) // new key inside [100,300)
	invalidated := false
	for _, h := range handles {
		if !h.Valid() {
			invalidated = true
		}
	}
	if !invalidated {
		t.Fatal("phantom insert left all scan handles valid")
	}
}

func TestConcurrentInsertsDisjoint(t *testing.T) {
	tr := New[int]()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := key(id*per + i)
				if !tr.Insert(k, id*per+i) {
					t.Errorf("insert %s failed", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Fatalf("len = %d, want %d", tr.Len(), workers*per)
	}
	for i := 0; i < workers*per; i++ {
		if v, ok := tr.Get(key(i)); !ok || v != i {
			t.Fatalf("get %d = (%d,%v)", i, v, ok)
		}
	}
	assertOrdered(t, tr)
}

func TestConcurrentInsertSameKeys(t *testing.T) {
	tr := New[int]()
	const workers, keys = 8, 1000
	var winners [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				if _, inserted := tr.InsertIfAbsent(key(i), id); inserted {
					winners[i].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range winners {
		if got := winners[i].Load(); got != 1 {
			t.Fatalf("key %d had %d insert winners", i, got)
		}
	}
	if tr.Len() != keys {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestReadersDuringWrites(t *testing.T) {
	tr := New[int]()
	// Pre-populate even keys.
	const n = 4000
	for i := 0; i < n; i += 2 {
		tr.Insert(key(i), i)
	}
	stop := make(chan struct{})
	var readerErr atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(99))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(n)
				if i%2 == 0 {
					// Pre-existing keys must always be found.
					if v, ok := tr.Get(key(i)); !ok || v != i {
						readerErr.Store(fmt.Sprintf("lost pre-existing key %d (ok=%v v=%d)", i, ok, v))
						return
					}
				}
				// Scans must stay ordered.
				var last []byte
				cnt := 0
				tr.Scan(key(i), nil, nil, func(k []byte, _ int) bool {
					if last != nil && bytes.Compare(k, last) <= 0 {
						readerErr.Store("scan out of order")
						return false
					}
					last = append(last[:0], k...)
					cnt++
					return cnt < 50
				})
			}
		}()
	}
	// Writers insert odd keys, forcing splits under the readers.
	var wwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wwg.Add(1)
		go func(id int) {
			defer wwg.Done()
			for i := 1 + id*2; i < n; i += 8 {
				tr.InsertIfAbsent(key(i), i)
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	if e := readerErr.Load(); e != nil {
		t.Fatal(e)
	}
	assertOrdered(t, tr)
}

// assertOrdered checks the full scan yields strictly ascending keys.
func assertOrdered(t *testing.T, tr *Tree[int]) {
	t.Helper()
	var last []byte
	tr.Scan(nil, nil, nil, func(k []byte, _ int) bool {
		if last != nil && bytes.Compare(k, last) <= 0 {
			t.Fatalf("keys out of order: %q after %q", k, last)
		}
		last = append(last[:0], k...)
		return true
	})
}

func TestVariableLengthKeys(t *testing.T) {
	tr := New[int]()
	keys := []string{"", "a", "aa", "ab", "b", "ba", "z", "zzzzzzzzzzzz", "\x00", "\xff\xff"}
	for i, k := range keys {
		if !tr.Insert([]byte(k), i) {
			t.Fatalf("insert %q", k)
		}
	}
	for i, k := range keys {
		if v, ok := tr.Get([]byte(k)); !ok || v != i {
			t.Fatalf("get %q = (%d,%v)", k, v, ok)
		}
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	i := 0
	tr.Scan(nil, nil, nil, func(k []byte, _ int) bool {
		if string(k) != sorted[i] {
			t.Fatalf("scan %d = %q, want %q", i, k, sorted[i])
		}
		i++
		return true
	})
}

func BenchmarkGet(b *testing.B) {
	tr := New[int]()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(key(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % n))
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New[int]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(key(i), i)
	}
}

func BenchmarkScan100(b *testing.B) {
	tr := New[int]()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(key(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := 0
		tr.Scan(key(i%(n-200)), nil, nil, func([]byte, int) bool {
			cnt++
			return cnt < 100
		})
	}
}

// Conditional deletes and rebinds racing inserts, splits and lock-free
// readers: every key a writer owns ends where its last operation left it,
// readers never see a torn leaf, and a reader's handle on a leaf survives
// exactly the operations that let no key in.
func TestConcurrentDeleteIfReplace(t *testing.T) {
	tr := New[int]()
	const writers, perWriter, rounds = 4, 400, 6
	stop := make(chan struct{})
	var readerErr atomic.Value
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(seed int64) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var last []byte
				n := 0
				tr.Scan(key(rng.Intn(writers*perWriter)), nil, func(h Handle[int]) { h.Valid() },
					func(k []byte, _ int) bool {
						if last != nil && bytes.Compare(k, last) <= 0 {
							readerErr.Store(fmt.Sprintf("scan out of order: %q after %q", k, last))
							return false
						}
						last = append(last[:0], k...)
						n++
						return n < 100
					})
			}
		}(int64(r))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Writers interleave key ranges, so they share leaves.
			for round := 0; round < rounds; round++ {
				for i := 0; i < perWriter; i++ {
					k, v := key(i*writers+id), round*1000+id
					if !tr.Insert(k, v) {
						t.Errorf("writer %d round %d: key %d still present", id, round, i)
						return
					}
					if tr.DeleteIf(k, v+1) || tr.Replace(k, v+1, 0) {
						t.Errorf("writer %d: conditional op matched a value never bound", id)
						return
					}
					if !tr.Replace(k, v, v+1) {
						t.Errorf("writer %d: replace of own binding failed", id)
						return
					}
				}
				if round == rounds-1 {
					break
				}
				for i := 0; i < perWriter; i++ {
					if !tr.DeleteIf(key(i*writers+id), round*1000+id+1) {
						t.Errorf("writer %d round %d: delete of own binding %d failed", id, round, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if e := readerErr.Load(); e != nil {
		t.Fatal(e)
	}
	if tr.Len() != writers*perWriter {
		t.Fatalf("len = %d, want %d", tr.Len(), writers*perWriter)
	}
	for id := 0; id < writers; id++ {
		for i := 0; i < perWriter; i++ {
			if v, ok := tr.Get(key(i*writers + id)); !ok || v != (rounds-1)*1000+id+1 {
				t.Fatalf("key %d of writer %d = %d, %v", i, id, v, ok)
			}
		}
	}
	assertOrdered(t, tr)
}

// A leaf's stamp follows its keys through splits: whatever leaf a key ends up
// in carries at least every stamp raised on a leaf that covered the key.
func TestStampSurvivesSplits(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10; i++ {
		tr.Insert(key(i*1000), i)
	}
	_, _, h := tr.GetH(key(4500)) // a miss, on the root while it is a leaf
	h.RaiseStamp(7)
	h.RaiseStamp(5) // never lowers
	// A root split, then many leaf splits.
	for i := 0; i < 10000; i++ {
		tr.Insert(key(i), i)
	}
	if h.Valid() {
		t.Fatal("handle survived inserts into its leaf")
	}
	for i := 0; i < 10000; i += 37 {
		if _, _, g := tr.GetH(key(i)); g.Stamp() != 7 {
			t.Fatalf("leaf of key %d carries stamp %d, want 7", i, g.Stamp())
		}
	}
	// DeleteIf and Replace leave it alone.
	_, _, g := tr.GetH(key(77))
	tr.DeleteIf(key(77), 77)
	tr.Replace(key(78), 78, -78)
	if !g.Valid() || g.Stamp() != 7 {
		t.Fatalf("after DeleteIf/Replace: valid=%v stamp=%d", g.Valid(), g.Stamp())
	}
}

// The stamp protocol (Handle.Stamp): a reader that saw a key missing raises
// the leaf's stamp and then validates; a writer inserts the key and then
// reads the stamp of the leaf it landed in. Never may the reader validate and
// the writer miss the reader's stamp, splits included.
func TestStampOrInvalidate(t *testing.T) {
	tr := New[int]()
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		k := key(i)
		_, found, h := tr.GetH(k)
		if found {
			t.Fatal("key present before its insert")
		}
		stamp := uint64(i + 1)
		var valid bool
		var seen uint64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			h.RaiseStamp(stamp)
			valid = h.Valid()
		}()
		go func() {
			defer wg.Done()
			_, _, _, after := tr.InsertH(k, i)
			seen = after.Stamp()
		}()
		wg.Wait()
		if valid && seen < stamp {
			t.Fatalf("round %d: the reader validated and the writer read stamp %d < %d", i, seen, stamp)
		}
	}
}

// A scan that pauses mid-leaf yields, when it resumes, exactly the view of
// the leaf it loaded, whatever happened to the leaf in between: an insert into
// the part not yet yielded, a removal, a rebind, a compaction of the leaf's
// slots and a split.
func TestScanYieldsItsView(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i*10), i*10)
	}
	ref, view := tr.descendLeaf(key(5000))
	type pair struct {
		k string
		v int
	}
	var want []pair
	for i := 0; i < int(view.live); i++ {
		want = append(want, pair{string(view.at(i).key), view.at(i).val})
	}
	if len(want) < 16 {
		t.Fatalf("setup: leaf holds only %d keys", len(want))
	}
	lo, hi := view.at(0).key, view.highKey
	first, last := want[0].v, want[len(want)-1].v

	paused, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var got []pair
	go func() {
		defer close(done)
		tr.Scan(lo, hi, func(h Handle[int]) {
			if h.ref != ref {
				t.Errorf("scan left the leaf")
			}
		}, func(k []byte, v int) bool {
			got = append(got, pair{string(k), v})
			if len(got) == 3 {
				close(paused)
				<-resume
			}
			return true
		})
	}()
	<-paused

	// Rebind and remove keys the scan has not reached yet.
	if !tr.Replace(key(want[5].v), want[5].v, -1) || !tr.DeleteIf(key(want[6].v), want[6].v) {
		t.Fatal("replace or delete failed")
	}
	// New keys between the leaf's own, never multiples of ten.
	fresh := []int{}
	for x := first + 1; x < last; x++ {
		if x%10 != 0 {
			fresh = append(fresh, x)
		}
	}
	// Insert and remove until the used-up slots force a compaction.
	compacted := false
	for _, x := range fresh {
		slots := len(ref.ptr.Load().slots)
		if !tr.Insert(key(x), x) || !tr.DeleteIf(key(x), x) {
			t.Fatalf("churn of key %d failed", x)
		}
		if len(ref.ptr.Load().slots) < slots {
			compacted = true
			break
		}
	}
	if !compacted {
		t.Fatal("no compaction")
	}
	// Fill the leaf until it splits.
	split := false
	for _, x := range fresh {
		tr.Insert(key(x), x)
		if !bytes.Equal(ref.ptr.Load().highKey, hi) {
			split = true
			break
		}
	}
	if !split {
		t.Fatal("no split")
	}

	close(resume)
	<-done
	if len(got) != len(want) {
		t.Fatalf("scan yielded %d entries, its view held %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: scan yielded %q=%d, its view held %q=%d", i, got[i].k, got[i].v, want[i].k, want[i].v)
		}
	}
	assertOrdered(t, tr)
}

// NEW-ORDER's shape: each district inserts orders at its tail and removes them
// from its head, so a leaf fills at one end and empties at the other while
// scanners walk the district from its prefix. Every scan yields keys in
// order, every key present for the whole scan, and no key removed before it
// began or inserted after it ended; Len stays within what the writers allow.
func TestNewOrderChurn(t *testing.T) {
	const districts, window = 4, 100
	orders := 20000
	if testing.Short() {
		orders = 4000
	}
	okey := func(d, o int) []byte { return []byte(fmt.Sprintf("d%02d-o%08d", d, o)) }
	tr := New[int]()
	// Per district: inserts begun and done, deletes begun and done; each the
	// count of orders, which go in and out in order.
	var insBegun, insDone, delBegun, delDone [districts]atomic.Int64
	sum := func(c *[districts]atomic.Int64) (s int64) {
		for d := range c {
			s += c[d].Load()
		}
		return s
	}

	var writers sync.WaitGroup
	for d := 0; d < districts; d++ {
		writers.Add(2)
		go func() {
			defer writers.Done()
			for o := 0; o < orders; o++ {
				insBegun[d].Store(int64(o + 1))
				if !tr.Insert(okey(d, o), o) {
					t.Errorf("district %d: insert of order %d failed", d, o)
					return
				}
				insDone[d].Store(int64(o + 1))
			}
		}()
		go func() {
			defer writers.Done()
			for o := 0; o < orders-window; o++ {
				for insDone[d].Load() <= int64(o+window) {
					runtime.Gosched()
				}
				delBegun[d].Store(int64(o + 1))
				if !tr.DeleteIf(okey(d, o), o) {
					t.Errorf("district %d: delete of order %d failed", d, o)
					return
				}
				delDone[d].Store(int64(o + 1))
			}
		}()
	}

	stop := make(chan struct{})
	var scanErr atomic.Value
	var scanners sync.WaitGroup
	for s := 0; s < 2; s++ {
		scanners.Add(1)
		go func(seed int64) {
			defer scanners.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := rng.Intn(districts)
				// Counters that only grow bound Len from below when read before
				// it, from above when read after it (and the reverse for the
				// ones subtracted).
				insDoneSum, delDoneSum := sum(&insDone), sum(&delDone)
				n := int64(tr.Len())
				if low, high := insDoneSum-sum(&delBegun), sum(&insBegun)-delDoneSum; n < low || n > high {
					scanErr.Store(fmt.Sprintf("Len %d outside [%d, %d]", n, low, high))
					return
				}
				insLow, delLow := insDone[d].Load(), delDone[d].Load()
				var orders []int64
				tr.Scan([]byte(fmt.Sprintf("d%02d-", d)), []byte(fmt.Sprintf("d%02d.", d)), nil, func(k []byte, v int) bool {
					if !bytes.Equal(k, okey(d, v)) {
						scanErr.Store(fmt.Sprintf("key %q bound to %d", k, v))
						return false
					}
					orders = append(orders, int64(v))
					return true
				})
				insHigh, delHigh := insBegun[d].Load(), delBegun[d].Load()
				kept := int64(0)
				for i, o := range orders {
					switch {
					case i > 0 && o <= orders[i-1]:
						scanErr.Store(fmt.Sprintf("district %d: order %d after %d", d, o, orders[i-1]))
					case o < delLow:
						scanErr.Store(fmt.Sprintf("district %d: order %d yielded, removed before the scan", d, o))
					case o >= insHigh:
						scanErr.Store(fmt.Sprintf("district %d: order %d yielded, inserted after the scan", d, o))
					case o >= delHigh && o < insLow:
						kept++
					}
				}
				if want := insLow - delHigh; want > 0 && kept != want {
					scanErr.Store(fmt.Sprintf("district %d: %d of the %d orders present throughout yielded", d, kept, want))
				}
				if scanErr.Load() != nil {
					return
				}
			}
		}(int64(s))
	}
	writers.Wait()
	close(stop)
	scanners.Wait()
	if e := scanErr.Load(); e != nil {
		t.Fatal(e)
	}
	if tr.Len() != districts*window {
		t.Fatalf("len = %d, want %d", tr.Len(), districts*window)
	}
	for d := 0; d < districts; d++ {
		for o := orders - window; o < orders; o++ {
			if v, ok := tr.Get(okey(d, o)); !ok || v != o {
				t.Fatalf("district %d order %d = (%d, %v)", d, o, v, ok)
			}
		}
	}
	assertOrdered(t, tr)
}
