// Package metrics provides the measurement primitives used by the
// experiment harness: exact count-and-sum summaries, counters, the
// log-bucket latency histogram, and timestamped traces.
//
// The paper reports, for every workload: average operation time, segments
// examined per steal, elements stolen per steal, the fraction of removes
// that required a steal, steal frequency, and per-segment size traces over
// time (Figures 3-6). Every one of those reductions lives here so that the
// simulator, the real pool, and the harness all aggregate measurements the
// same way.
package metrics

import "sort"

// Summary accumulates a count and an exact integer sum, the two numbers
// behind every mean the paper reports. The zero value is an empty summary.
type Summary struct {
	n   int64
	sum int64
}

// Add folds a new observation into the summary.
func (s *Summary) Add(x int64) {
	s.n++
	s.sum += x
}

// Merge folds another summary into s, as if every observation of o had been
// added to s.
func (s *Summary) Merge(o Summary) {
	s.n += o.n
	s.sum += o.sum
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Sum returns the total of all observations.
func (s *Summary) Sum() int64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty summary. It divides
// the exact sum by the count, so it does not depend on the order in which
// observations were added or merged.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// TracePoint is one sample in a timestamped series: the size of a segment
// at a virtual (or real) time.
type TracePoint struct {
	Time  int64
	Value int64
}

// Trace is an append-only timestamped series. It records segment sizes over
// time for the Figure 3-6 style plots. The zero value is ready to use.
type Trace struct {
	points []TracePoint
}

// Record appends a sample. Samples should arrive in non-decreasing time
// order; out-of-order samples are kept but SampleAt sorts before querying.
func (t *Trace) Record(time, value int64) {
	t.points = append(t.points, TracePoint{Time: time, Value: value})
}

// Len returns the number of recorded points.
func (t *Trace) Len() int { return len(t.points) }

// Points returns a copy of the recorded samples.
func (t *Trace) Points() []TracePoint {
	out := make([]TracePoint, len(t.points))
	copy(out, t.points)
	return out
}

// SampleAt resamples the trace at the given times using last-value-carried-
// forward semantics (a step function, matching how a segment size evolves).
// Times before the first sample yield the first sample's value, or 0 for an
// empty trace.
func (t *Trace) SampleAt(times []int64) []int64 {
	out := make([]int64, len(times))
	if len(t.points) == 0 {
		return out
	}
	pts := t.Points()
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Time < pts[j].Time })
	for i, tm := range times {
		// Find the last point with Time <= tm.
		idx := sort.Search(len(pts), func(j int) bool { return pts[j].Time > tm })
		if idx == 0 {
			out[i] = pts[0].Value
		} else {
			out[i] = pts[idx-1].Value
		}
	}
	return out
}

// MaxTime returns the largest timestamp in the trace, or 0 if empty.
func (t *Trace) MaxTime() int64 {
	var m int64
	for _, p := range t.points {
		if p.Time > m {
			m = p.Time
		}
	}
	return m
}

// MaxValue returns the largest value in the trace, or 0 if empty.
func (t *Trace) MaxValue() int64 {
	var m int64
	for _, p := range t.points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}
