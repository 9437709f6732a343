package main

import "slices"

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two closest ranks, the estimator Python's
// statistics.quantiles uses with method="inclusive". It sorts xs in place
// and returns 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// latencyBuf returns an empty buffer for about n sampled durations (ns),
// allocated before the timed region so recording does not allocate.
func latencyBuf(n int) []float64 { return make([]float64, 0, n/64+64) }

// sampled pools per-worker latency buffers into one sample.
func sampled(bufs ...[]float64) ([]float64, int64) {
	xs := slices.Concat(bufs...)
	return xs, int64(len(xs))
}

// trimmedMean is the mean of xs without its lowest and highest tenth, so
// a preempted call does not dominate a per-call cost.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	cut := len(xs) / 10
	var sum float64
	for _, x := range xs[cut : len(xs)-cut] {
		sum += x
	}
	return sum / float64(len(xs)-2*cut)
}
