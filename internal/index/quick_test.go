package index

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickInsertGetRoundTrip: any set of distinct byte-string keys can be
// inserted and read back.
func TestQuickInsertGetRoundTrip(t *testing.T) {
	if err := quick.Check(func(keys [][]byte) bool {
		tr := New[int]()
		inserted := map[string]int{}
		for i, k := range keys {
			_, ok := inserted[string(k)]
			_, didInsert := tr.InsertIfAbsent(k, i)
			if didInsert == ok {
				return false // insert outcome must mirror prior presence
			}
			if !ok {
				inserted[string(k)] = i
			}
		}
		for k, want := range inserted {
			v, ok := tr.Get([]byte(k))
			if !ok || v != want {
				return false
			}
		}
		return tr.Len() == len(inserted)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickScanMatchesSortedKeys: a full scan yields exactly the inserted
// keys in bytewise order.
func TestQuickScanMatchesSortedKeys(t *testing.T) {
	if err := quick.Check(func(keys [][]byte) bool {
		tr := New[int]()
		set := map[string]bool{}
		for i, k := range keys {
			tr.InsertIfAbsent(k, i)
			set[string(k)] = true
		}
		want := make([]string, 0, len(set))
		for k := range set {
			want = append(want, k)
		}
		sort.Strings(want)
		i := 0
		ok := true
		tr.Scan(nil, nil, nil, func(k []byte, _ int) bool {
			if i >= len(want) || string(k) != want[i] {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok && i == len(want)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickRangeScanBounds: every range scan returns exactly the keys in
// [lo, hi).
func TestQuickRangeScanBounds(t *testing.T) {
	if err := quick.Check(func(keys [][]byte, lo, hi []byte) bool {
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		tr := New[int]()
		set := map[string]bool{}
		for i, k := range keys {
			tr.InsertIfAbsent(k, i)
			set[string(k)] = true
		}
		want := 0
		for k := range set {
			if bytes.Compare([]byte(k), lo) >= 0 && bytes.Compare([]byte(k), hi) < 0 {
				want++
			}
		}
		got := 0
		valid := true
		tr.Scan(lo, hi, nil, func(k []byte, _ int) bool {
			if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 {
				valid = false
				return false
			}
			got++
			return true
		})
		return valid && got == want
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeleteRemovesExactlyOne: a conditional delete naming the bound
// value removes that key and nothing else; one naming another value removes
// nothing.
func TestQuickDeleteRemovesExactlyOne(t *testing.T) {
	if err := quick.Check(func(keys [][]byte, victim uint8) bool {
		tr := New[int]()
		set := map[string]bool{}
		for i, k := range keys {
			tr.InsertIfAbsent(k, i)
			set[string(k)] = true
		}
		if len(set) == 0 {
			return !tr.DeleteIf(nil, 0)
		}
		var names []string
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		target := names[int(victim)%len(names)]
		bound, _ := tr.Get([]byte(target))
		if tr.DeleteIf([]byte(target), bound+1) || tr.Len() != len(set) {
			return false
		}
		if !tr.DeleteIf([]byte(target), bound) {
			return false
		}
		if _, ok := tr.Get([]byte(target)); ok {
			return false
		}
		for _, k := range names {
			if k == target {
				continue
			}
			if _, ok := tr.Get([]byte(k)); !ok {
				return false
			}
		}
		return tr.Len() == len(set)-1
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
