// Package metrics provides the measurement primitives used by the
// experiment harness: summaries with an exact count and a weighted sum,
// counters, the log-bucket latency histogram, and timestamped traces.
//
// The paper reports, for every workload: average operation time, segments
// examined per steal, elements stolen per steal, the fraction of removes
// that required a steal, steal frequency, and per-segment size traces over
// time (Figures 3-6). Every one of those reductions lives here so that the
// simulator, the real pool, and the harness all aggregate measurements the
// same way.
package metrics

import "sort"

// Summary accumulates an exact count of observations and a weighted sum
// of their values, the numbers behind every mean the paper reports. Each
// observation carries an integer weight: the number of observations it
// stands for. A sampled one of weight k stands for itself and the k-1
// that were counted (AddWeighted with weight 0) but not measured, so N
// stays exact while Mean and Sum are weighted estimates. With weight 1
// everywhere — Add — the weight total equals N and every figure is exact.
// The zero value is an empty summary.
type Summary struct {
	n   int64 // observations, weighted or not
	w   int64 // weight total
	sum int64 // weighted sum of the values
}

// Add folds a new observation of weight 1 into the summary.
func (s *Summary) Add(x int64) { s.AddWeighted(x, 1) }

// AddWeighted folds one observation of weight w into the summary: it
// counts once in N and w times in Mean and Sum. Weight 0 counts an
// observation whose value was not measured.
func (s *Summary) AddWeighted(x, w int64) {
	s.n++
	s.w += w
	s.sum += x * w
}

// Merge folds another summary into s, as if every observation of o had been
// added to s.
func (s *Summary) Merge(o Summary) {
	s.n += o.n
	s.w += o.w
	s.sum += o.sum
}

// N returns the exact number of observations.
func (s *Summary) N() int64 { return s.n }

// Weight returns the weight total: N when every observation was added
// with weight 1.
func (s *Summary) Weight() int64 { return s.w }

// Sum returns the weighted total of the observations.
func (s *Summary) Sum() int64 { return s.sum }

// Mean returns the weighted mean, or 0 when the weight total is 0. It
// divides the exact weighted sum by the weight total, so it does not
// depend on the order in which observations were added or merged.
func (s *Summary) Mean() float64 {
	if s.w == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.w)
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
