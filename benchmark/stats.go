package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear histogram of nanosecond values: 128
// buckets per power of two, so a bucket is under 0.8% wide, and exact
// below 256 ns. The load loops record into histograms, not slices,
// because the benchmark shares a process — and a garbage collector —
// with the system it measures: millions of appended samples grew the
// heap during a pass and with it the interval between collections, so
// the harness's own memory set how often the program under test paid
// for a collection.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // buckets per octave
	histBuckets = (64 - histSubBits + 1) * histSub
)

// bucketOf maps a value to its bucket.
func bucketOf(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return shift<<histSubBits + int(v>>shift)
}

// bucketRange returns bucket i's lowest value and its width.
func bucketRange(i int) (low, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	shift := i>>histSubBits - 1
	return int64(i-shift<<histSubBits) << shift, 1 << shift
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile returns the p-th percentile (0 < p <= 100), interpolated
// inside the bucket that holds that rank; 0 for an empty histogram.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			low, width := bucketRange(i)
			return float64(low) + float64(width)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	low, width := bucketRange(histBuckets - 1)
	return float64(low + width)
}

// tailCandidates are the percentiles a tail column may report, highest
// first.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer the value is a handful of outliers, not a percentile.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile that still has
// at least minBeyond of the n samples beyond it, and 0 when even the
// median has not (n < 20): then no tail is reported at all.
func tailPercentile(n uint64) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

// medianFloat returns the median of vals (mean of the middle pair for
// an even count), 0 for none.
func medianFloat(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
