package metrics

import (
	"testing"
	"testing/quick"
)

// One record of weight 64 stands for 64 identical records of weight 1:
// same weighted Mean, Sum and quantiles, while Summary.N still counts the
// one observation that was made.
func TestWeightedRecordMatchesRepeated(t *testing.T) {
	const w = 64
	for _, v := range []int64{0, 1, 3, 1000, 1 << 40} {
		var one, many Summary
		one.AddWeighted(v, w)
		for range w {
			many.Add(v)
		}
		if one.Mean() != many.Mean() || one.Sum() != many.Sum() || one.Weight() != many.Weight() {
			t.Errorf("Summary %d: weighted mean/sum/weight %v/%d/%d, repeated %v/%d/%d",
				v, one.Mean(), one.Sum(), one.Weight(), many.Mean(), many.Sum(), many.Weight())
		}
		if one.N() != 1 || many.N() != w {
			t.Errorf("Summary %d: N = %d and %d, want 1 and %d", v, one.N(), many.N(), w)
		}

		var h1, hn LatencyHist
		h1.RecordWeighted(v, w)
		for range w {
			hn.Record(v)
		}
		if h1 != hn {
			t.Errorf("LatencyHist %d: weighted record %+v differs from repeated records %+v", v, h1, hn)
		}
		for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
			if a, b := h1.Quantile(q), hn.Quantile(q); a != b {
				t.Errorf("LatencyHist %d: Quantile(%v) = %v, repeated %v", v, q, a, b)
			}
		}

		var s1, sn PoolStats
		s1.RecordAdd(v, w)
		s1.RecordLocalRemove(v, w)
		for range w {
			sn.RecordAdd(v, 1)
			sn.RecordLocalRemove(v, 1)
		}
		if s1.AvgOpTime() != sn.AvgOpTime() || s1.AddTime.Mean() != sn.AddTime.Mean() ||
			s1.RemoveTime.Mean() != sn.RemoveTime.Mean() || s1.OpLat != sn.OpLat {
			t.Errorf("PoolStats %d: weighted record differs from repeated records", v)
		}
	}
}

// A sampled run whose op count is not a multiple of the stride: 100 adds,
// two of them timed with weight 64 at 3 µs. The per-element time must be
// the weighted mean times the exact op count (3 µs), not the weighted sum
// over the exact count (3 × 128 / 100).
func TestAvgTimePerElementSampled(t *testing.T) {
	var s PoolStats
	for i := range 100 {
		w := int64(0)
		if i%64 == 0 {
			w = 64
		}
		s.RecordAdd(3, w)
	}
	if s.OpCount() != 100 || s.AddTime.N() != 100 || s.OpLat.N() != 128 {
		t.Fatalf("OpCount, AddTime.N, OpLat.N = %d, %d, %d; want 100, 100, 128",
			s.OpCount(), s.AddTime.N(), s.OpLat.N())
	}
	if got := s.AvgOpTime(); got != 3 {
		t.Errorf("AvgOpTime = %v, want 3", got)
	}
	if got := s.AvgTimePerElement(); got != 3 {
		t.Errorf("AvgTimePerElement = %v, want 3", got)
	}
}

// Merging summaries and histograms of mixed weights (0 for counted-only,
// 1 and 64) is exact and does not depend on the order of the merges.
func TestWeightedMergeOrderFree(t *testing.T) {
	weights := []int64{0, 1, 64}
	f := func(vals []uint16, ws []uint8) bool {
		const parts = 3
		var seq Summary
		var seqH LatencyHist
		var sums [parts]Summary
		var hists [parts]LatencyHist
		for i, v := range vals {
			w := int64(1)
			if i < len(ws) {
				w = weights[int(ws[i])%len(weights)]
			}
			seq.AddWeighted(int64(v), w)
			sums[i%parts].AddWeighted(int64(v), w)
			if w > 0 {
				seqH.RecordWeighted(int64(v), w)
				hists[i%parts].RecordWeighted(int64(v), w)
			}
		}
		for _, order := range [][parts]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
			var m Summary
			var mh LatencyHist
			for _, i := range order {
				m.Merge(sums[i])
				mh.Merge(&hists[i])
			}
			if m != seq || m.Mean() != seq.Mean() || mh != seqH || mh.P99() != seqH.P99() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
