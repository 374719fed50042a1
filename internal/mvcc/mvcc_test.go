package mvcc

import (
	"sync"
	"testing"
	"testing/quick"

	"ermia/internal/txnid"
)

func TestStampEncoding(t *testing.T) {
	tid := txnid.TID(42<<16 | 7)
	s := TIDStamp(tid)
	if !IsTID(s) {
		t.Fatal("TID stamp not recognized")
	}
	if AsTID(s) != tid {
		t.Fatalf("round trip: %d != %d", AsTID(s), tid)
	}
	if IsTID(12345) {
		t.Fatal("plain LSN recognized as TID")
	}
	if IsTID(Infinity) {
		t.Fatal("Infinity must be LSN-typed")
	}
	if err := quick.Check(func(raw uint64) bool {
		tid := txnid.TID(raw &^ (1 << 63))
		return AsTID(TIDStamp(tid)) == tid
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestVersionBasics(t *testing.T) {
	v := NewVersion([]byte("hello"), 100, false)
	if v.CLSN() != 100 || v.Sstamp() != Infinity || v.Pstamp() != 0 {
		t.Fatalf("fresh version stamps: clsn=%d sstamp=%d pstamp=%d",
			v.CLSN(), v.Sstamp(), v.Pstamp())
	}
	old := NewVersion([]byte("old"), 50, false)
	v.SetNext(old)
	if v.Next() != old {
		t.Fatal("next link broken")
	}
	v.SetCLSN(200)
	if v.CLSN() != 200 {
		t.Fatal("SetCLSN")
	}
	tomb := NewVersion(nil, 300, true)
	if !tomb.Tombstone {
		t.Fatal("tombstone flag")
	}
}

func TestMaxPstampMonotonic(t *testing.T) {
	v := NewVersion(nil, 1, false)
	v.MaxPstamp(10)
	v.MaxPstamp(5) // lower value must not regress
	if got := v.Pstamp(); got != 10 {
		t.Fatalf("pstamp = %d, want 10", got)
	}
	v.MaxPstamp(20)
	if got := v.Pstamp(); got != 20 {
		t.Fatalf("pstamp = %d, want 20", got)
	}
}

func TestMaxPstampConcurrent(t *testing.T) {
	v := NewVersion(nil, 1, false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				v.MaxPstamp(base + i)
			}
		}(uint64(w * 1000))
	}
	wg.Wait()
	if got := v.Pstamp(); got != 7999 {
		t.Fatalf("pstamp = %d, want max 7999", got)
	}
}

func TestReaderBitmap(t *testing.T) {
	v := NewVersion(nil, 1, false)
	if v.HasReaders() {
		t.Fatal("fresh version has readers")
	}
	for _, w := range []int{0, 1, 63, 64, 127, 255} {
		v.MarkReader(w)
	}
	var got []int
	v.Readers(func(w int) { got = append(got, w) })
	if len(got) != 6 {
		t.Fatalf("readers = %v", got)
	}
	v.ClearReader(63)
	v.ClearReader(255)
	count := 0
	v.Readers(func(w int) {
		count++
		if w == 63 || w == 255 {
			t.Errorf("cleared reader %d still present", w)
		}
	})
	if count != 4 {
		t.Fatalf("count = %d", count)
	}
	// Worker IDs beyond capacity wrap deterministically.
	v.MarkReader(256)
	found := false
	v.Readers(func(w int) {
		if w == 0 {
			found = true
		}
	})
	if !found {
		t.Error("worker 256 should map to slot 0")
	}
}

func TestReaderBitmapConcurrent(t *testing.T) {
	v := NewVersion(nil, 1, false)
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v.MarkReader(id)
				v.ClearReader(id)
			}
		}(w)
	}
	wg.Wait()
	if v.HasReaders() {
		t.Fatal("readers leaked after symmetric mark/clear")
	}
}

func TestOIDAllocUnique(t *testing.T) {
	a := NewOIDArray()
	const workers, per = 8, 5000
	results := make([][]OID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				results[id] = append(results[id], a.Alloc())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[OID]bool, workers*per)
	for _, list := range results {
		for _, oid := range list {
			if oid == InvalidOID {
				t.Fatal("allocated invalid OID")
			}
			if seen[oid] {
				t.Fatalf("duplicate OID %d", oid)
			}
			seen[oid] = true
		}
	}
	if a.MaxOID() != OID(workers*per) {
		t.Errorf("MaxOID = %d, want %d", a.MaxOID(), workers*per)
	}
}

func TestInstallAndHead(t *testing.T) {
	a := NewOIDArray()
	oid := a.Alloc()
	if a.Head(oid) != nil {
		t.Fatal("fresh slot not empty")
	}
	v := NewVersion([]byte("x"), 10, false)
	a.Install(oid, v)
	if a.Head(oid) != v {
		t.Fatal("head not installed")
	}
	// OIDs spanning multiple chunks.
	far := OID(3*chunkSize + 17)
	a.EnsureAllocated(far)
	a.Install(far, v)
	if a.Head(far) != v {
		t.Fatal("cross-chunk install failed")
	}
}

func TestCASHeadDetectsRace(t *testing.T) {
	a := NewOIDArray()
	oid := a.Alloc()
	v1 := NewVersion([]byte("v1"), 10, false)
	a.Install(oid, v1)

	v2 := NewVersion([]byte("v2"), TIDStamp(1<<16|1), false)
	v2.SetNext(v1)
	if !a.CASHead(oid, v1, v2) {
		t.Fatal("first CAS failed")
	}
	v3 := NewVersion([]byte("v3"), TIDStamp(2<<16|2), false)
	v3.SetNext(v1) // stale head
	if a.CASHead(oid, v1, v3) {
		t.Fatal("CAS against stale head succeeded: write-write conflict missed")
	}
}

func TestConcurrentCASOneWinnerPerRound(t *testing.T) {
	a := NewOIDArray()
	oid := a.Alloc()
	base := NewVersion(nil, 1, false)
	a.Install(oid, base)

	const workers = 8
	var wins [workers]int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				head := a.Head(oid)
				nv := NewVersion(nil, TIDStamp(txnid.TID(id+1)), false)
				nv.SetNext(head)
				if a.CASHead(oid, head, nv) {
					wins[id]++
				}
			}
		}(w)
	}
	wg.Wait()
	// Chain length equals total wins + 1 (base): no lost updates.
	total := 0
	for _, w := range wins {
		total += w
	}
	n := 0
	for v := a.Head(oid); v != nil; v = v.Next() {
		n++
	}
	if n != total+1 {
		t.Fatalf("chain length %d, want %d wins + base", n, total+1)
	}
}

func TestEnsureAllocated(t *testing.T) {
	a := NewOIDArray()
	a.EnsureAllocated(100)
	if got := a.Alloc(); got != 101 {
		t.Fatalf("Alloc after EnsureAllocated(100) = %d, want 101", got)
	}
	a.EnsureAllocated(50) // no-op: already past
	if got := a.Alloc(); got != 102 {
		t.Fatalf("Alloc = %d, want 102", got)
	}
}

func TestScanVisitsAllInOrder(t *testing.T) {
	a := NewOIDArray()
	want := []OID{}
	for i := 0; i < 100; i++ {
		oid := a.Alloc()
		if i%3 == 0 {
			continue // leave empty slots
		}
		a.Install(oid, NewVersion(nil, uint64(i+1), false))
		want = append(want, oid)
	}
	var got []OID
	a.Scan(func(oid OID, head *Version) bool {
		got = append(got, oid)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scanned %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order diverged at %d: %d vs %d", i, got[i], want[i])
		}
	}
	// Early termination.
	count := 0
	a.Scan(func(OID, *Version) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop scanned %d", count)
	}
}

// buildChain makes a chain with the given committed stamps, newest first.
func buildChain(a *OIDArray, stamps ...uint64) OID {
	oid := a.Alloc()
	var head *Version
	for i := len(stamps) - 1; i >= 0; i-- {
		v := NewVersion(nil, stamps[i], false)
		v.SetNext(head)
		head = v
	}
	a.Install(oid, head)
	return oid
}

func TestPrune(t *testing.T) {
	a := NewOIDArray()
	oid := buildChain(a, 100, 80, 60, 40, 20)

	// Horizon 70: version 60 is the newest below it; 40 and 20 go.
	if removed := a.Prune(oid, 70); removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	var stamps []uint64
	for v := a.Head(oid); v != nil; v = v.Next() {
		stamps = append(stamps, v.CLSN())
	}
	if len(stamps) != 3 || stamps[2] != 60 {
		t.Fatalf("chain after prune: %v", stamps)
	}
	// Pruning again at the same horizon is a no-op.
	if removed := a.Prune(oid, 70); removed != 0 {
		t.Fatalf("second prune removed %d", removed)
	}
	// Horizon past everything: only the newest survives.
	if removed := a.Prune(oid, 1000); removed != 2 {
		t.Fatalf("final prune removed %d, want 2", removed)
	}
	if head := a.Head(oid); head.CLSN() != 100 || head.Next() != nil {
		t.Fatal("newest version must survive any horizon")
	}
}

func TestPruneSkipsInFlightVersions(t *testing.T) {
	a := NewOIDArray()
	oid := a.Alloc()
	committed := NewVersion(nil, 50, false)
	older := NewVersion(nil, 30, false)
	committed.SetNext(older)
	inflight := NewVersion(nil, TIDStamp(7<<16|1), false)
	inflight.SetNext(committed)
	a.Install(oid, inflight)

	// Horizon 100: the in-flight head must survive; committed(50) is the
	// anchor; only older(30) goes.
	if removed := a.Prune(oid, 100); removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if a.Head(oid) != inflight || inflight.Next() != committed || committed.Next() != nil {
		t.Fatal("prune broke in-flight chain structure")
	}
}

func TestPruneEmptyAndAllNew(t *testing.T) {
	a := NewOIDArray()
	oid := a.Alloc()
	if removed := a.Prune(oid, 100); removed != 0 {
		t.Fatalf("prune of empty slot removed %d", removed)
	}
	oid2 := buildChain(a, 500, 400)
	// Horizon below every version: nothing is safely invisible.
	if removed := a.Prune(oid2, 100); removed != 0 {
		t.Fatalf("prune below chain removed %d", removed)
	}
}

func BenchmarkAllocInstall(b *testing.B) {
	a := NewOIDArray()
	v := NewVersion(nil, 1, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Install(a.Alloc(), v)
	}
}

func BenchmarkCASHead(b *testing.B) {
	a := NewOIDArray()
	oid := a.Alloc()
	a.Install(oid, NewVersion(nil, 1, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head := a.Head(oid)
		nv := NewVersion(nil, uint64(i+2), false)
		nv.SetNext(head)
		a.CASHead(oid, head, nv)
	}
}

func BenchmarkChainTraverse(b *testing.B) {
	a := NewOIDArray()
	oid := buildChain(a, 100, 90, 80, 70, 60, 50, 40, 30, 20, 10)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for v := a.Head(oid); v != nil; v = v.Next() {
			sink += v.CLSN()
		}
	}
	_ = sink
}

func TestSealRetiresALoneVersion(t *testing.T) {
	a := NewOIDArray()
	oid := a.Alloc()
	live := NewVersion([]byte("v"), 10, false)
	a.Install(oid, live)
	tomb := NewVersion([]byte("key"), 20, true)
	tomb.SetNext(live)
	if !a.CASHead(oid, live, tomb) {
		t.Fatal("install failed")
	}

	// Not dead while an older version is behind it, while its stamp is not
	// below the horizon, or while the stamp is a TID.
	if a.DeadTombstone(oid, 30) != nil {
		t.Fatal("tombstone with a version behind it reported dead")
	}
	if n := a.Prune(oid, 30); n != 1 {
		t.Fatalf("pruned %d, want 1", n)
	}
	if a.DeadTombstone(oid, 20) != nil || a.DeadTombstone(oid, 30) != tomb {
		t.Fatal("DeadTombstone must hold exactly for horizons above the stamp")
	}
	inflight := NewVersion([]byte("key"), TIDStamp(7), true)
	other := a.Alloc()
	a.Install(other, inflight)
	if a.DeadTombstone(other, 1<<40) != nil {
		t.Fatal("TID-stamped tombstone reported dead")
	}

	// A writer that installs first makes the seal fail; after a seal no CAS
	// against any head a writer could have read succeeds.
	newer := NewVersion([]byte("v2"), TIDStamp(9), false)
	newer.SetNext(tomb)
	if !a.CASHead(oid, tomb, newer) || a.Seal(oid, tomb) || a.Sealed(oid) {
		t.Fatal("seal succeeded over a newer head")
	}
	if !a.CASHead(oid, newer, tomb) { // the writer aborts
		t.Fatal("unlink failed")
	}
	if !a.Seal(oid, tomb) || !a.Sealed(oid) {
		t.Fatal("seal of a lone tombstone failed")
	}
	if a.Head(oid) != nil || a.Prune(oid, 100) != 0 {
		t.Fatal("a sealed slot must read as empty")
	}
	if a.CASHead(oid, tomb, newer) || a.CASHead(oid, nil, newer) || a.Seal(oid, tomb) || a.Seal(oid, nil) {
		t.Fatal("a sealed slot accepted a version")
	}
	seen := 0
	a.Scan(func(OID, *Version) bool { seen++; return true })
	if seen != 1 { // only the in-flight one
		t.Fatalf("scan visited %d heads, want 1", seen)
	}
	if a.Sealed(other) || a.Sealed(a.Alloc()+chunkSize) {
		t.Fatal("unsealed or unallocated slot reported sealed")
	}
}

func TestAbsentVersion(t *testing.T) {
	var v Version
	v.InitAbsent()
	if !v.Tombstone || !v.Absent() || IsTID(v.CLSN()) || v.CLSN() == 0 || v.Sstamp() != Infinity {
		t.Fatalf("absent version: tombstone=%v absent=%v clsn=%d sstamp=%d", v.Tombstone, v.Absent(), v.CLSN(), v.Sstamp())
	}
	if tomb := NewVersion([]byte("k"), 4096, true); tomb.Absent() {
		t.Fatal("a delete's tombstone reads as an absent version")
	}
	// Prune treats it as the oldest committed version it is.
	a := NewOIDArray()
	oid := a.Alloc()
	first := NewVersion([]byte("x"), 4096, false)
	first.SetNext(&v)
	a.Install(oid, first)
	if n := a.Prune(oid, 4096); n != 0 {
		t.Fatalf("pruned %d versions under a horizon that does not see the insert", n)
	}
	if n := a.Prune(oid, 4097); n != 1 || first.Next() != nil {
		t.Fatalf("pruned %d, next=%v; want the absent version cut", n, first.Next())
	}
}
