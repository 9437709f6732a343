package metrics

import (
	"math/bits"
	"sync/atomic"
)

// LatBuckets is the number of log-2 latency buckets a LatencyHist holds.
// Bucket i (i >= 1) counts observations v with 2^(i-1) <= v < 2^i; bucket
// 0 counts v == 0. Forty buckets cover latencies up to 2^39 µs (about
// eighteen years); anything larger saturates into the last bucket.
const LatBuckets = 40

// LatencyHist is a fixed-size log-bucket latency histogram built for the
// 0-alloc hot path: Record is three atomic adds into a flat array — no
// allocation, no lock, no interface call. Each handle owns one (embedded
// in its metrics.PoolStats) and records into it privately; report-time
// readers Merge per-handle histograms into a quiescent accumulator and
// query percentiles there.
//
// Concurrency contract: Record may run concurrently with Merge, Quantile,
// and other Records (all cross-goroutine access is atomic). Merge's
// *receiver* must be quiescent — it is the report-side accumulator — and
// a merge concurrent with recording yields a snapshot that may trail the
// newest observation by one in-flight Record. The zero value is ready to
// use.
type LatencyHist struct {
	n       int64
	sum     int64
	buckets [LatBuckets]int64
}

// latBucketOf returns the bucket index for one observation: 0 for v <= 0,
// 1+floor(log2 v) otherwise, saturating at the last bucket.
func latBucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= LatBuckets {
		b = LatBuckets - 1
	}
	return b
}

// Record folds one latency observation (µs, virtual or wall-clock) into
// the histogram. Negative values clamp to zero. Record never allocates.
func (h *LatencyHist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	atomic.AddInt64(&h.n, 1)
	atomic.AddInt64(&h.sum, v)
	atomic.AddInt64(&h.buckets[latBucketOf(v)], 1)
}

// Merge folds another histogram into h, as if every observation of o had
// been recorded into h. o is read atomically (it may still be receiving
// Records); h must be quiescent — the report-time accumulator.
func (h *LatencyHist) Merge(o *LatencyHist) {
	atomic.AddInt64(&h.n, atomic.LoadInt64(&o.n))
	atomic.AddInt64(&h.sum, atomic.LoadInt64(&o.sum))
	for i := range o.buckets {
		atomic.AddInt64(&h.buckets[i], atomic.LoadInt64(&o.buckets[i]))
	}
}

// N returns the number of recorded observations.
func (h *LatencyHist) N() int64 { return atomic.LoadInt64(&h.n) }

// Sum returns the total of all recorded observations.
func (h *LatencyHist) Sum() int64 { return atomic.LoadInt64(&h.sum) }

// Mean returns the arithmetic mean of recorded values, or 0 when empty.
func (h *LatencyHist) Mean() float64 {
	n := atomic.LoadInt64(&h.n)
	if n == 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&h.sum)) / float64(n)
}

// Quantile returns the q-quantile (0 <= q <= 1; clamped) with linear
// interpolation inside the matched bucket: the fractional rank's position
// within the bucket's count interpolates between the bucket's lower and
// upper edge, so q at a bucket's first observation returns (close to) the
// lower edge and q at its last returns the upper edge exactly. The result
// is exact to within a factor of two (the bucket width); observations
// saturated into the last bucket report that bucket's edges. An empty
// histogram returns 0.
func (h *LatencyHist) Quantile(q float64) float64 {
	var b [LatBuckets]int64
	var total int64
	for i := range h.buckets {
		b[i] = atomic.LoadInt64(&h.buckets[i])
		total += b[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range b {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if seen+fc >= rank {
			if i == 0 {
				return 0
			}
			lo := float64(int64(1) << (i - 1))
			frac := (rank - seen) / fc
			if frac < 0 {
				frac = 0
			}
			return lo + frac*lo // lo + frac*(hi-lo), hi = 2*lo
		}
		seen += fc
	}
	// Unreachable when total > 0 (the last non-empty bucket satisfies
	// seen+fc >= rank since rank <= total), but keep a defined answer.
	return 0
}

// P50 returns the median latency.
func (h *LatencyHist) P50() float64 { return h.Quantile(0.50) }

// P99 returns the 99th-percentile latency.
func (h *LatencyHist) P99() float64 { return h.Quantile(0.99) }

// P999 returns the 99.9th-percentile latency — the tail the open-loop
// experiments report.
func (h *LatencyHist) P999() float64 { return h.Quantile(0.999) }
