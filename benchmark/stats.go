package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank percentile (0 < p <= 1) of
// sorted: the smallest sample with at least p of the samples at or
// below it. No interpolation and no buckets — the gated bounds are a
// tenth, which a 6 % histogram bucket would eat.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), the one
// that referees this benchmark's run-to-run spread.
// Fewer than two samples yield the sample itself three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// midmean is the interquartile mean: the mean of the middle half of the
// samples. It is what a block series is reduced to. Like the median it
// ignores the blocks a GC cycle or a descheduling struck (and the ones
// that ran unusually free), but it averages half the blocks, not one:
// on ten-run series of this benchmark it was never the noisiest of
// median, midmean and whole-run mean, and each of the other two was
// (README.md, "Bounds").
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	if hi <= lo {
		return math.NaN()
	}
	var sum float64
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// median is the middle sample (mean of the two middle ones for an even
// count).
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// sortedNs converts raw nanosecond samples to a sorted float slice.
func sortedNs(samples []uint32) []float64 {
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}
