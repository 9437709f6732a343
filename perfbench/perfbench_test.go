package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTreeDeterministic(t *testing.T) {
	a, b := newTree(1).expected(), newTree(1).expected()
	if a != b {
		t.Fatalf("same seed, different trees: %+v vs %+v", a, b)
	}
	// Splits conserve work and leaves carry 1, so the shape's size is fixed.
	if a.leaves != treeRootWork || a.tasks != 2*treeRootWork-1 {
		t.Fatalf("tree has %d tasks, %d leaves; want %d, %d", a.tasks, a.leaves, 2*treeRootWork-1, treeRootWork)
	}
	if c := newTree(2).expected(); c.leafSum == a.leafSum {
		t.Fatalf("seeds 1 and 2 give the same checksum %#x", a.leafSum)
	}
}

func TestKeyedStreamDeterministic(t *testing.T) {
	for w := range 2 {
		a, b := keyedStream(7, w, 4096), keyedStream(7, w, 4096)
		if !slices.Equal(a, b) {
			t.Fatalf("worker %d: same seed, different streams", w)
		}
		if slices.Equal(a, keyedStream(8, w, 4096)) {
			t.Fatalf("worker %d: seeds 7 and 8 give the same stream", w)
		}
		var puts int
		for _, op := range a {
			parity := int(op.class() % 2)
			if op.class() >= keyedClasses || (op.put() && parity != w) || (!op.put() && parity == w) {
				t.Fatalf("worker %d: op %#x breaks the class parity rule", w, op)
			}
			if op.put() {
				puts++
			}
		}
		if puts < 1900 || puts > 2200 {
			t.Fatalf("worker %d: %d puts of 4096, want about half", w, puts)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		// statistics.quantiles([15, 20, 35, 40, 50], n=4, method="inclusive") == [20, 35, 40]
		{[]float64{50, 15, 40, 20, 35}, 0.25, 20},
		{[]float64{50, 15, 40, 20, 35}, 0.5, 35},
		{[]float64{50, 15, 40, 20, 35}, 0.75, 40},
		{[]float64{4, 3, 2, 1}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.99, 3.97},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{7}, 0.99, 7},
		{nil, 0.5, 0},
	} {
		if got := percentile(slices.Clone(c.xs), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := trimmedMean([]float64{1000, 1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 5.5 {
		t.Errorf("trimmedMean drops the extremes: got %v, want 5.5", got)
	}
}

func TestCheckTree(t *testing.T) {
	want := treeSum{tasks: 7, leaves: 4, leafSum: 100}
	if n, err := checkTree(want, want); n != 0 || err != nil {
		t.Fatalf("exact result failed: %d, %v", n, err)
	}
	lost := treeSum{tasks: 6, leaves: 3, leafSum: 70}
	dup := treeSum{tasks: 8, leaves: 5, leafSum: 130}
	swapped := treeSum{tasks: 7, leaves: 4, leafSum: 101} // one leaf lost, another run twice
	for _, got := range []treeSum{lost, dup, swapped} {
		if n, err := checkTree(got, want); n != int64(want.tasks) || err == nil {
			t.Errorf("checkTree(%+v) = %d, %v; want the round failed", got, n, err)
		}
	}
}

func TestCheckLedger(t *testing.T) {
	for _, c := range []struct {
		seen []uint8
		bad  int64
		want int64
	}{
		{[]uint8{1, 1, 1}, 0, 0},
		{[]uint8{1, 0, 1}, 0, 1}, // lost
		{[]uint8{1, 2, 1}, 0, 1}, // duplicated
		{[]uint8{3, 1, 1}, 0, 2}, // delivered three times
		{[]uint8{1, 1, 1}, 1, 1}, // never put
	} {
		n, err := checkLedger("test", c.seen, c.bad)
		if n != c.want || (err != nil) != (c.want > 0) {
			t.Errorf("checkLedger(%v, %d) = %d, %v; want %d failed", c.seen, c.bad, n, err, c.want)
		}
	}
}

func TestCheckDigest(t *testing.T) {
	if n, err := checkDigest("x", "ab", "ab", 10); n != 0 || err != nil {
		t.Fatalf("equal digests failed: %d, %v", n, err)
	}
	if n, err := checkDigest("x", "ab", "ac", 10); n != 10 || err == nil {
		t.Fatalf("digest mismatch = %d, %v; want all 10 operations failed", n, err)
	}
}

// runRound runs one round of w and returns its verification.
func runRound(t *testing.T, w bench, inject func()) (int64, error) {
	t.Helper()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if err := withDeadline(30*time.Second, os.Stderr, func() { w.run() }); err != nil {
		t.Fatal(err)
	}
	if inject != nil {
		inject()
	}
	return w.verify()
}

// The workloads' own checks catch a loss or duplicate injected into a
// real round's output.
func TestWorkloadChecksCatchInjectedFaults(t *testing.T) {
	tt := newTasktree(1, false)
	if n, err := runRound(t, tt, nil); n != 0 || err != nil {
		t.Fatalf("tasktree clean round: %d, %v", n, err)
	}
	if n, _ := runRound(t, tt, func() { tt.sums[0].leaves--; tt.sums[0].tasks-- }); n == 0 {
		t.Error("tasktree: lost leaf not caught")
	}
	if n, _ := runRound(t, tt, func() { tt.sums[1].leafSum += tt.sums[0].leafSum }); n == 0 {
		t.Error("tasktree: wrong checksum not caught")
	}

	ho := newHandoff(1, false)
	if n, err := runRound(t, ho, nil); n != 0 || err != nil {
		t.Fatalf("handoff clean round: %d, %v", n, err)
	}
	if n, _ := runRound(t, ho, func() { ho.seen[5] = 0 }); n != 1 {
		t.Errorf("handoff: injected loss gave %d failed, want 1", n)
	}
	if n, _ := runRound(t, ho, func() { ho.seen[9] = 2 }); n != 1 {
		t.Errorf("handoff: injected duplicate gave %d failed, want 1", n)
	}

	kx := newKeyedExchange(1)
	if n, err := runRound(t, kx, nil); n != 0 || err != nil {
		t.Fatalf("keyed-exchange clean round: %d, %v", n, err)
	}
	if n, _ := runRound(t, kx, func() { kx.delivered[0] = kx.delivered[0][1:] }); n == 0 {
		t.Error("keyed-exchange: lost element not caught")
	}
	if n, _ := runRound(t, kx, func() { kx.pool.Handle(1).Put(3, kx.delivered[1][0]) }); n == 0 {
		t.Error("keyed-exchange: duplicated element not caught")
	}

	ps := newPaperSim(1)
	if n, err := runRound(t, ps, nil); n != 0 || err != nil {
		t.Fatalf("paper-sim first round: %d, %v", n, err)
	}
	if n, _ := runRound(t, ps, func() { ps.recs[3].Makespan++ }); n != ps.expectedOps() {
		t.Errorf("paper-sim: digest mismatch gave %d failed, want %d", n, ps.expectedOps())
	}
}

func TestWithDeadline(t *testing.T) {
	if err := withDeadline(time.Second, os.Stderr, func() {}); err != nil {
		t.Fatalf("a returning round: %v", err)
	}
	release := make(chan struct{})
	defer close(release)
	var dump bytes.Buffer
	err := withDeadline(10*time.Millisecond, &dump, func() { <-release })
	if !errors.Is(err, errDeadline) {
		t.Fatalf("a hung round: %v, want errDeadline", err)
	}
	if !strings.Contains(dump.String(), "goroutine ") {
		t.Fatalf("no goroutine dump: %q", dump.String())
	}
}

// lastResult parses the JSON result a run prints last.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestRunPrintsEveryMetric(t *testing.T) {
	for _, c := range []struct {
		args []string
		defs []metricDef
	}{
		{[]string{"--workload", "paper-sim", "--seconds", "1", "--trace", "0"}, endToEnd},
		{[]string{"--workload", "handoff", "--seconds", "1", "--trace", "1", "--spans", t.TempDir() + "/spans.csv"}, perLayer},
	} {
		var out, errOut bytes.Buffer
		if code := run(append(c.args, "--seed", "5"), &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d\n%s%s", c.args, code, out.String(), errOut.String())
		}
		r := lastResult(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(c.defs) {
			t.Fatalf("%v: %+v", c.args, r)
		}
		for _, d := range c.defs {
			m := r.Metrics[d.name]
			if m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%v: metric %s = %+v", c.args, d.name, m)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tasktree", "--trace", "2"},
		{"--workload", "tasktree", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, program %s %s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
