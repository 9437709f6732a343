package harness

import (
	"strings"
	"testing"

	"pools/internal/search"
)

// TestLocalitySweepBeatsBlindAtScale is the tentpole acceptance bar: at
// the largest swept delay the cost-ranked order's average operation time
// must beat both structurally blind orders (random and tree) and stay
// within 10% of linear, the strongest blind order; at zero delay it must
// match linear exactly (it falls back to it).
func TestLocalitySweepBeatsBlindAtScale(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 1989, Ops: 1200, Fill: 96}
	scales := []int64{0, 5000}
	rows := LocalitySweep(cfg, scales)
	if len(rows) != len(scales)*len(LocalityOrderNames()) {
		t.Fatalf("sweep produced %d rows, want %d", len(rows), len(scales)*len(LocalityOrderNames()))
	}
	at := func(order string, d int64) Point {
		for _, r := range rows {
			if r.Series == order && r.Point.X == float64(d) {
				return r.Point
			}
		}
		t.Fatalf("row (%s, %d) missing", order, d)
		return Point{}
	}
	const top = 5000
	loc := at("locality", top).AvgOpTime
	if ran := at("random", top).AvgOpTime; loc >= ran {
		t.Fatalf("locality %.0f >= random %.0f at delay %d", loc, ran, top)
	}
	if tr := at("tree", top).AvgOpTime; loc >= tr {
		t.Fatalf("locality %.0f >= tree %.0f at delay %d", loc, tr, top)
	}
	if lin := at("linear", top).AvgOpTime; loc > lin*1.10 {
		t.Fatalf("locality %.0f more than 10%% above linear %.0f at delay %d", loc, lin, top)
	}
	if l0, lin0 := at("locality", 0), at("linear", 0); l0.AvgOpTime != lin0.AvgOpTime {
		t.Fatalf("at zero delay locality %.2f != linear %.2f (fallback must coincide)", l0.AvgOpTime, lin0.AvgOpTime)
	}
}

// TestRenderLocality checks the figure, table, and CSV carry the sweep.
func TestRenderLocality(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 7, Ops: 600, Fill: 64}
	rows := LocalitySweep(cfg, []int64{0, 1000})
	out, csv := renderLocality(rows)
	for _, want := range []string{"Locality sweep", "clustered topology", "locality", "vs best blind", "added delay"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if !strings.Contains(csv, "order,delay_us,avg_op_us") {
		t.Errorf("CSV header missing:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != len(rows)+1 {
		t.Errorf("CSV has %d lines, want %d", got, len(rows)+1)
	}
}

// TestControlTraceRunDiverges checks the trace experiment's headline:
// producers hold the steal-half fraction while at least one consumer's
// trajectory leaves it, and the render/CSV carry per-handle rows.
func TestControlTraceRunDiverges(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 1989, Ops: 2000, Fill: 128}
	res := ControlTraceRun(cfg, search.Tree, 5, 1)
	if len(res.FracSampled) != 16 || len(res.FinalFrac) != 16 {
		t.Fatalf("trajectories for %d handles, want 16", len(res.FracSampled))
	}
	moved := false
	for h, frac := range res.FinalFrac {
		if res.Producers[h] {
			if frac != 0.5 {
				t.Fatalf("producer %d final fraction %v, want 0.5", h, frac)
			}
		} else if frac != 0.5 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no consumer fraction left steal-half: per-handle control invisible")
	}
	out, csv := res.render()
	for _, want := range []string{"Controller trajectories", "handle  0 P", "final steal fraction", "steal fraction (permil)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// The cross-probe trajectories ride along: panels in the render, a
	// cross_permil column in the CSV, and — with contiguous producers on
	// the clustered topology — at least one consumer that had to cross a
	// boundary to eat.
	if !strings.Contains(out, "Cross-cluster probe fraction per handle") {
		t.Error("render missing the cross-probe panels")
	}
	crossed := false
	for h := range res.FinalCross {
		if res.FinalCross[h] > 0 {
			crossed = true
		}
	}
	if !crossed {
		t.Error("no handle shows a cross-cluster probe fraction: trace accounting lost")
	}
	if !strings.Contains(csv, "handle,role,sample,frac_permil,batch,cross_permil") {
		t.Errorf("CSV header missing:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 16*100+1 {
		t.Errorf("CSV has %d lines, want %d", got, 16*100+1)
	}
}
