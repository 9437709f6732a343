package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSummaryAgainstNaive(t *testing.T) {
	data := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, -2, 0}
	var s Summary
	var sum int64
	for _, x := range data {
		s.Add(x)
		sum += x
	}
	mean := float64(sum) / float64(len(data))

	if s.N() != int64(len(data)) {
		t.Fatalf("N = %d, want %d", s.N(), len(data))
	}
	if s.Mean() != mean {
		t.Errorf("Mean = %v, want %v", s.Mean(), mean)
	}
	if s.Sum() != sum {
		t.Errorf("Sum = %d, want %d", s.Sum(), sum)
	}
}

// TestSummaryExactMean pins the mean to the exact sum divided by the
// count. 53 followed by nineteen 52s totals 1041 over 20 observations, a
// decimal tie at 52.05 (the fig7 balanced 12-producer cell). A running
// (Welford) mean of this sequence lands one ULP above 1041.0/20 and rounds
// that cell to 52.1 instead of 52.0.
func TestSummaryExactMean(t *testing.T) {
	var s Summary
	s.Add(53)
	for i := 0; i < 19; i++ {
		s.Add(52)
	}
	if s.N() != 20 || s.Sum() != 1041 {
		t.Fatalf("N, Sum = %d, %d; want 20, 1041", s.N(), s.Sum())
	}
	if got, want := s.Mean(), 1041.0/20; got != want {
		t.Fatalf("Mean = %.17g, want %.17g", got, want)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Sum() != 0 || s.N() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(a, b []int32) bool {
		var merged, left, right Summary
		for _, x := range a {
			left.Add(int64(x))
			merged.Add(int64(x))
		}
		for _, x := range b {
			right.Add(int64(x))
			merged.Add(int64(x))
		}
		left.Merge(right)
		return left == merged && left.Mean() == merged.Mean()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryMergeEmptySides(t *testing.T) {
	var a, b Summary
	b.Add(5)
	b.Add(7)
	a.Merge(b) // empty <- non-empty
	if a.N() != 2 || a.Mean() != 6 {
		t.Fatalf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Summary
	a.Merge(c) // non-empty <- empty
	if a.N() != 2 || a.Mean() != 6 {
		t.Fatalf("merge of empty changed state: n=%d mean=%v", a.N(), a.Mean())
	}
}

func TestTraceSampleAtStepSemantics(t *testing.T) {
	var tr Trace
	tr.Record(10, 5)
	tr.Record(20, 8)
	tr.Record(30, 2)
	got := tr.SampleAt([]int64{0, 10, 15, 20, 25, 30, 99})
	want := []int64{5, 5, 5, 8, 8, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SampleAt[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTraceEmpty(t *testing.T) {
	var tr Trace
	got := tr.SampleAt([]int64{1, 2, 3})
	for _, v := range got {
		if v != 0 {
			t.Fatal("empty trace should sample zeros")
		}
	}
	if tr.MaxTime() != 0 || tr.MaxValue() != 0 {
		t.Fatal("empty trace max should be 0")
	}
}

func TestTraceMaxes(t *testing.T) {
	var tr Trace
	tr.Record(5, 100)
	tr.Record(50, 3)
	if tr.MaxTime() != 50 || tr.MaxValue() != 100 {
		t.Fatalf("MaxTime=%d MaxValue=%d", tr.MaxTime(), tr.MaxValue())
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestTracePointsIsCopy(t *testing.T) {
	var tr Trace
	tr.Record(1, 1)
	p := tr.Points()
	p[0].Value = 999
	if tr.Points()[0].Value != 1 {
		t.Fatal("Points returned a reference to internal storage")
	}
}

func TestPoolStatsAccounting(t *testing.T) {
	var s PoolStats
	s.RecordAdd(70)
	s.RecordAdd(90)
	s.RecordLocalRemove(110)
	s.RecordStealRemove(500, 3, 10)
	s.RecordAbort(30)

	if s.Adds != 2 || s.Removes != 2 || s.LocalRemoves != 1 || s.Steals != 1 || s.Aborts != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if got := s.Ops(); got != 4 {
		t.Errorf("Ops = %d, want 4", got)
	}
	wantAvg := (70.0 + 90 + 110 + 500 + 30) / 5
	if !almostEqual(s.AvgOpTime(), wantAvg, 1e-12) {
		t.Errorf("AvgOpTime = %v, want %v", s.AvgOpTime(), wantAvg)
	}
	if !almostEqual(s.StealFraction(), 0.5, 1e-12) {
		t.Errorf("StealFraction = %v, want 0.5", s.StealFraction())
	}
	if !almostEqual(s.MixAchieved(), 0.5, 1e-12) {
		t.Errorf("MixAchieved = %v, want 0.5", s.MixAchieved())
	}
	if s.SegmentsExamined.Mean() != 3 || s.ElementsStolen.Mean() != 10 {
		t.Errorf("steal summaries wrong: %v %v", s.SegmentsExamined.Mean(), s.ElementsStolen.Mean())
	}
}

func TestPoolStatsMerge(t *testing.T) {
	var a, b PoolStats
	a.RecordAdd(10)
	a.RecordBatchAdd(25, 4)
	a.RecordStealRemove(33, 3, 2)
	b.RecordLocalRemove(20)
	b.RecordStealRemove(30, 2, 4)
	b.RecordBatchLocalRemove(12, 3)
	b.RecordBatchStealRemove(41, 5, 6, 4)
	b.RecordAbort(10)
	a.Merge(&b)
	if a.Adds != 5 || a.Removes != 10 || a.LocalRemoves != 4 || a.Steals != 3 || a.Aborts != 1 ||
		a.BatchAdds != 1 || a.BatchRemoves != 2 {
		t.Fatalf("merged counts wrong: %+v", a)
	}
	if a.Ops() != 15 {
		t.Fatalf("merged Ops = %d", a.Ops())
	}

	// Per-kind means are the exact merged sum over the merged count.
	for _, c := range []struct {
		name   string
		s      Summary
		n, sum int64
	}{
		{"AddTime", a.AddTime, 2, 10 + 25},
		{"RemoveTime", a.RemoveTime, 5, 33 + 20 + 30 + 12 + 41},
		{"SegmentsExamined", a.SegmentsExamined, 3, 3 + 2 + 5},
		{"ElementsStolen", a.ElementsStolen, 3, 2 + 4 + 6},
	} {
		if c.s.N() != c.n || c.s.Sum() != c.sum || c.s.Mean() != float64(c.sum)/float64(c.n) {
			t.Errorf("%s: n=%d sum=%d mean=%v, want n=%d sum=%d mean=%v",
				c.name, c.s.N(), c.s.Sum(), c.s.Mean(), c.n, c.sum, float64(c.sum)/float64(c.n))
		}
	}

	// OpCount, AvgOpTime and AvgTimePerElement read OpLat, which holds
	// every operation once: they must agree with the per-kind summaries
	// plus the one abort.
	const abortTime = 10
	ops := a.AddTime.N() + a.RemoveTime.N() + a.Aborts
	total := a.AddTime.Sum() + a.RemoveTime.Sum() + abortTime
	if a.OpCount() != ops || a.OpLat.Sum() != total {
		t.Errorf("OpCount=%d OpLat.Sum=%d, want %d and %d", a.OpCount(), a.OpLat.Sum(), ops, total)
	}
	if got, want := a.AvgOpTime(), float64(total)/float64(ops); got != want {
		t.Errorf("AvgOpTime = %v, want %v", got, want)
	}
	if got, want := a.AvgTimePerElement(), float64(total)/float64(a.Adds+a.Removes+a.Aborts); got != want {
		t.Errorf("AvgTimePerElement = %v, want %v", got, want)
	}
}

func TestPoolStatsEmptyRatios(t *testing.T) {
	var s PoolStats
	if s.AvgOpTime() != 0 || s.StealFraction() != 0 || s.MixAchieved() != 0 {
		t.Fatal("empty stats should report zero ratios")
	}
}

func TestOpKindString(t *testing.T) {
	if OpAdd.String() != "add" || OpRemove.String() != "remove" || OpKind(0).String() != "unknown" {
		t.Fatal("OpKind.String wrong")
	}
}

func TestPoolStatsSummary(t *testing.T) {
	var s PoolStats
	s.RecordAdd(10)
	s.RecordLocalRemove(20)
	s.RecordStealRemove(30, 2, 4)
	s.RecordAbort(40)
	s.RecordStealVictim(true)
	s.RecordStealVictim(false)
	s.RecordProbe(true)
	s.RecordProbe(false)
	got := s.Summary()
	// ops = 1 add + 2 completed removes; one steal, one
	// abort; 1/2 foreign steals; 1/2 cross probes.
	for _, want := range []string{
		"ops=3", "steals=1", "aborts=1",
		"interference=0.500", "cross_probe=0.500",
		"p50=", "p99=", "p999=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Summary %q missing %q", got, want)
		}
	}
	if strings.Contains(got, "\n") {
		t.Errorf("Summary is not one line: %q", got)
	}
}
