package harness

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"pools/internal/core"
	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/workload"
)

// TestPolicySweepAdaptiveCompetitive is the subsystem's acceptance bar:
// on the batch-16 burst sweep the adaptive policy's per-element time must
// be within 10% of the best static policy — the controller has to find a
// good operating point online, without being configured for the workload.
func TestPolicySweepAdaptiveCompetitive(t *testing.T) {
	cfg := Config{Trials: 3, Seed: 1989}
	rows := PolicySweep(cfg, search.Tree, 5, []int{16})
	perElem := map[string]float64{}
	for _, r := range rows {
		if r.Point.X == 16 {
			perElem[r.Series] = r.Point.PerElementTime
		}
	}
	best := 0.0
	for _, name := range []string{"half", "one", "proportional"} {
		v, ok := perElem[name]
		if !ok || v <= 0 {
			t.Fatalf("static policy %q missing from sweep: %v", name, perElem)
		}
		if best == 0 || v < best {
			best = v
		}
	}
	adaptive, ok := perElem["adaptive"]
	if !ok || adaptive <= 0 {
		t.Fatalf("adaptive missing from sweep: %v", perElem)
	}
	if adaptive > best*1.10 {
		t.Fatalf("adaptive per-element time %.2f exceeds best static %.2f by more than 10%%",
			adaptive, best)
	}
}

// TestPolicySweepSeparatesPolicies checks the sweep actually measures
// different policies: steal-one must haul exactly one element per steal
// while steal-half hauls many on the batch-16 burst workload.
func TestPolicySweepSeparatesPolicies(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 7}
	rows := PolicySweep(cfg, search.Tree, 5, []int{16})
	byPolicy := map[string]Point{}
	for _, r := range rows {
		byPolicy[r.Series] = r.Point
	}
	if got := byPolicy["one"].ElementsStolen; got != 1 {
		t.Fatalf("steal-one stolen/steal = %.2f, want 1", got)
	}
	if byPolicy["half"].ElementsStolen <= byPolicy["proportional"].ElementsStolen {
		t.Fatalf("half stolen/steal %.2f <= proportional %.2f",
			byPolicy["half"].ElementsStolen, byPolicy["proportional"].ElementsStolen)
	}
}

// TestPolicyFluctuate checks the fluctuating-roles comparison produces a
// row per (policy, cadence) with measured times.
func TestPolicyFluctuate(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 3}
	rows := PolicyFluctuate(cfg, search.Linear, 4, 8, []int{0, 50})
	if len(rows) != len(PolicyNames())*2 {
		t.Fatalf("got %d rows, want %d", len(rows), len(PolicyNames())*2)
	}
	byKey := map[string]map[float64]Point{}
	for _, r := range rows {
		if r.Point.PerElementTime <= 0 {
			t.Fatalf("row %s/%s has no per-element time", r.Series, r.Case)
		}
		if byKey[r.Series] == nil {
			byKey[r.Series] = map[float64]Point{}
		}
		byKey[r.Series][r.Point.X] = r.Point
	}
	// The cadence must actually rotate roles: at ~300 elements per process
	// a flip-50 run cannot be byte-identical to fixed roles for every
	// policy (that would mean the rotation clock never ticked).
	same := 0
	for _, pts := range byKey {
		if pts[0] == pts[50] {
			same++
		}
	}
	if same == len(byKey) {
		t.Fatal("flip-50 rows identical to fixed-roles rows for every policy: rotation never engaged")
	}
}

// TestRenderPolicy checks the chart, tables, and CSVs render with every
// policy present.
func TestRenderPolicy(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 11}
	rows := PolicySweep(cfg, search.Tree, 5, []int{1, 8})
	fluct := PolicyFluctuate(cfg, search.Linear, 4, 8, []int{0, 10})
	out, both := renderPolicy(search.Tree, rows, 8, fluct)
	for _, want := range []string{"half", "one", "proportional", "adaptive", "per-element time", "µs/element"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered sweep missing %q:\n%s", want, out)
		}
	}
	csv, fcsv, _ := strings.Cut(both, "\n\n")
	if !strings.Contains(csv, "per_element_us") ||
		len(strings.Split(strings.TrimSpace(csv), "\n")) != len(rows)+1 {
		t.Fatalf("unexpected CSV:\n%s", csv)
	}
	if !strings.Contains(out, "rotate/10 elems") || !strings.Contains(out, "Fluctuating") {
		t.Fatalf("fluct render missing content:\n%s", out)
	}
	if !strings.Contains(fcsv, "flip_every") ||
		len(strings.Split(strings.TrimSpace(fcsv), "\n")) != len(fluct)+1 {
		t.Fatalf("unexpected fluct CSV:\n%s", fcsv)
	}
}

// TestRealRunBurstAdaptive runs the adaptive policy set on the real-pool
// substrate's burst loop (which consults the controller's batch
// recommendation, mirroring the simulator) and checks conservation.
func TestRealRunBurstAdaptive(t *testing.T) {
	set, err := policy.Named("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Config{
		Procs:           4,
		Model:           workload.Burst,
		Producers:       2,
		Arrangement:     workload.Balanced,
		BatchSize:       8,
		TotalOps:        400,
		InitialElements: 32,
	}
	// Consumers hold their first operation until a producer's first batch
	// has landed. Otherwise, with the producers descheduled, the consumers
	// can drain the seed and spend the whole budget on aborts before any
	// PutAll runs.
	var pool *core.Pool[int]
	var landed atomic.Bool
	set.Control = &producerFirst{
		Adaptive: set.Control.(*policy.Adaptive),
		wl:       wl,
		landed: func() bool {
			if !landed.Load() && pool.Len() > wl.InitialElements {
				landed.Store(true)
			}
			return landed.Load()
		},
	}
	res, err := RealRun(RealRunConfig{
		Workload: wl, Search: search.Linear, Seed: 9, Policies: set,
		onPool: func(p *core.Pool[int]) { pool = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.BatchAdds == 0 {
		t.Fatal("adaptive burst run recorded no batch adds")
	}
	total := int64(wl.InitialElements) + st.Adds
	if st.Removes+int64(res.Remaining) != total {
		t.Fatalf("conservation violated: removes=%d remaining=%d added=%d",
			st.Removes, res.Remaining, total)
	}
}

// producerFirst is the shared adaptive controller of a burst run, spawned
// per handle so that a consumer's BatchSize, which the burst loop calls
// before each operation, can wait until landed reports a producer batch
// in the pool. Every controller call still goes to the one Adaptive.
type producerFirst struct {
	*policy.Adaptive
	wl     workload.Config
	landed func() bool
}

// Spawn implements policy.Spawner.
func (g *producerFirst) Spawn(handle int) policy.Controller {
	if g.wl.IsProducer(handle) {
		return g.Adaptive
	}
	return consumerGate{g}
}

type consumerGate struct{ *producerFirst }

func (c consumerGate) BatchSize(current int) int {
	for !c.landed() {
		runtime.Gosched()
	}
	return c.Adaptive.BatchSize(current)
}

// TestPolicySweepDeterministic re-runs the sweep with the same seed and
// requires identical points (the adaptive controller is rebuilt per
// trial, so no state leaks across runs).
func TestPolicySweepDeterministic(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 42}
	a := PolicySweep(cfg, search.Linear, 5, []int{8})
	b := PolicySweep(cfg, search.Linear, 5, []int{8})
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at row %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
