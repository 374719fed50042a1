package main

import (
	"math"
	"math/bits"
	"sort"
)

// Hist is a fixed-size log-linear histogram of non-negative int64 samples
// (nanoseconds, here). Each power-of-two octave is split into histSub equal
// sub-buckets, so a bucket is at most 1/histSub of its lower edge wide and a
// quantile read from it is off by at most half that (1.6 % at 32
// sub-buckets). Record does not allocate; histograms of the same type add, so
// every worker keeps its own and they are merged after the run.
type Hist struct {
	n      uint64
	max    int64
	counts [histBuckets]uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	// Values below histSub land in exact unit-wide buckets; the last octave
	// starts at 2^histMaxExp ns (about 18 minutes) and absorbs anything above.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 2) * histSub
)

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v in [2^exp, 2^(exp+1))
	if exp > histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(uint(exp)-histSubBits)) - histSub
	return (exp-histSubBits+1)*histSub + sub
}

// bucketBounds returns bucket i's half-open value range [lo, hi).
func bucketBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i) + 1
	}
	exp := uint(i/histSub + histSubBits - 1)
	width := int64(1) << (exp - histSubBits)
	lo = int64(1)<<exp + int64(i%histSub)*width
	return lo, lo + width
}

// Record adds one sample.
func (h *Hist) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Max returns the largest sample recorded, exactly.
func (h *Hist) Max() int64 { return h.max }

// Quantile returns the q-quantile (0 < q <= 1). The rank is located in its
// bucket and the value interpolated linearly across the bucket, so the result
// varies continuously with the data and never leaves the bucket that holds
// the true quantile.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, hi := bucketBounds(i)
			if m := h.max + 1; hi > m {
				hi = m // the top bucket in use ends at the largest sample
			}
			return float64(lo) + (float64(hi)-float64(lo))*(rank-cum)/float64(c)
		} else {
			cum = next
		}
	}
	return float64(h.max)
}

// medianIQR returns the median of xs and the distance between its first and
// third quartiles. xs is sorted in place.
func medianIQR(xs []float64) (med, iqr float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	at := func(p float64) float64 { // linear interpolation between order statistics
		pos := p * float64(n-1)
		i := int(math.Floor(pos))
		if i+1 >= n {
			return xs[n-1]
		}
		return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
	}
	return at(0.5), at(0.75) - at(0.25)
}
