package main

import (
	"math"
	"sort"
	"testing"

	"ermia/internal/xrand"
)

// logUniform draws n values spread evenly over the octaves from 100 ns to
// about 100 ms, the range latencies here occupy.
func logUniform(n int, seed uint64) []int64 {
	rng := xrand.New(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(100 * math.Pow(2, 20*rng.Float64()))
	}
	return out
}

func TestHistBucketsTile(t *testing.T) {
	prevHi := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d is [%d,%d), previous ended at %d", i, lo, hi, prevHi)
		}
		if bucketOf(lo) != i || bucketOf(hi-1) != i {
			t.Fatalf("bucket %d [%d,%d): edges map to %d and %d", i, lo, hi, bucketOf(lo), bucketOf(hi-1))
		}
		if i >= histSub && float64(hi-lo)/float64(lo) > 1.0/histSub {
			t.Fatalf("bucket %d [%d,%d) is wider than 1/%d of its lower edge", i, lo, hi, histSub)
		}
		prevHi = hi
	}
	if got := bucketOf(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("largest value maps to bucket %d, want the last", got)
	}
}

func TestHistQuantileError(t *testing.T) {
	samples := logUniform(200000, 7)
	var h Hist
	for _, v := range samples {
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		exact := float64(samples[int(math.Ceil(q*float64(len(samples))))-1])
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.03 {
			t.Errorf("q=%v: histogram says %.0f, exact %.0f (off by %.2f %%)", q, got, exact, 100*rel)
		}
	}
	if h.Max() != samples[len(samples)-1] || h.Count() != uint64(len(samples)) {
		t.Errorf("max %d count %d, want %d and %d", h.Max(), h.Count(), samples[len(samples)-1], len(samples))
	}
}

func TestHistMergeAssociative(t *testing.T) {
	parts := [3]Hist{}
	var whole Hist
	for i := range parts {
		for _, v := range logUniform(5000, uint64(i)+1) {
			parts[i].Record(v)
			whole.Record(v)
		}
	}
	left := parts[0] // (a+b)+c
	left.Merge(&parts[1])
	left.Merge(&parts[2])
	right := parts[1] // a+(b+c)
	right.Merge(&parts[2])
	a := parts[0]
	a.Merge(&right)
	if left != a || left != whole {
		t.Fatal("merging in a different order, or recording into one histogram, gives a different result")
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h Hist
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v += 977 }); n != 0 {
		t.Fatalf("Record allocates %.1f times per call", n)
	}
}
