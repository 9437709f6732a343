package harness

import (
	"fmt"

	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// This file measures the policy subsystem (internal/policy): the same
// burst workload under every steal policy — the paper's steal-half, the
// steal-one ablation, the proportional-to-appetite split, and the online
// adaptive controller — swept across batch sizes, plus a fluctuating-
// roles variant where the producer set rotates during the run. The
// sweep's question is the paper's question generalized: which transfer
// policy minimizes per-element time once consumers ask for batches, and
// can an online controller match the best static choice without being
// told the workload?

// PolicyNames returns the steal policies the sweep compares, in
// presentation order (see policy.Named).
func PolicyNames() []string { return policy.Names() }

// policyBurstRun executes one burst trial under a freshly constructed
// policy set (adaptive controllers carry state, so sharing one across
// trials would contaminate the average).
func (c Config) policyBurstRun(name string, kind search.Kind, producers, batch, flipEvery int, seed uint64) sim.RunResult {
	set, err := policy.Named(name)
	if err != nil {
		panic(err) // programmer error: sweep names come from PolicyNames
	}
	w := c.workloadFor(workload.Burst)
	w.Producers = producers
	w.Arrangement = workload.Balanced
	w.BatchSize = batch
	w.RoleFlipEvery = flipEvery
	return sim.Run(sim.RunConfig{
		Workload: w, Search: kind, Costs: c.Costs, Seed: seed, Policies: set,
	})
}

// PolicySweep runs the burst workload at each batch size under each steal
// policy, averaging the usual measurements per data point (rows carry the
// policy name as Series and the batch size as Point.X). Producers are
// balanced around the ring. Expected shape: steal-one pays a search per
// batch and stays flat and slow; steal-half amortizes; proportional
// tracks the requested batch exactly; adaptive should sit within a few
// percent of the best static policy at every batch size without being
// configured for any of them.
func PolicySweep(cfg Config, kind search.Kind, producers int, batches []int) []Row {
	c := cfg.withDefaults()
	var out []Row
	for _, name := range PolicyNames() {
		for _, bs := range batches {
			out = append(out, Row{Series: name, Point: c.average(float64(bs), func(seed uint64) sim.RunResult {
				return c.policyBurstRun(name, kind, producers, bs, 0, seed)
			})})
		}
	}
	return out
}

// PolicyFluctuate runs the burst workload at one batch size while the
// producer set rotates around the ring every flipEvery elements a process
// moves — the fluctuating workload: reserves keep appearing behind a
// moving frontier, so static transfer policies tuned for a stationary
// layout lose their footing. flips lists the cadences (0 = fixed roles
// for reference); at the paper scale each process moves only a few
// hundred elements, so meaningful cadences are well under that. Rows
// carry the policy name as Series, the role schedule as Case, and the
// cadence as Point.X.
func PolicyFluctuate(cfg Config, kind search.Kind, producers, batch int, flips []int) []Row {
	c := cfg.withDefaults()
	var out []Row
	for _, name := range PolicyNames() {
		for _, flip := range flips {
			roles := "fixed"
			if flip > 0 {
				roles = fmt.Sprintf("rotate/%d elems", flip)
			}
			out = append(out, Row{Series: name, Case: roles, Point: c.average(float64(flip), func(seed uint64) sim.RunResult {
				return c.policyBurstRun(name, kind, producers, batch, flip, seed)
			})})
		}
	}
	return out
}

// renderPolicy draws the policy sweep — one per-element-time series per
// policy across the batch sweep, plus the measurement table — and the
// fluctuating-roles table at the given batch size, followed in the CSV
// block by both sweeps.
func renderPolicy(kind search.Kind, rows []Row, batch int, fluct []Row) (text, csv string) {
	cols := []column[Row]{seriesCol("policy", "policy"), xCol("batch", "batch"), perElemCol, opUSCol, stolenCol, stealsCol, abortsCol, makespanCol}
	fluctCols := []column[Row]{
		seriesCol("policy", "policy"), {head: "roles", cell: rowCase, csv: "flip_every", csvCell: rowXInt},
		perElemCol, stolenCol, stealsCol, abortsCol,
	}
	series := seriesBy(rows, rowSeries, rowX, func(r Row) float64 { return r.Point.PerElementTime })
	text = chart(fmt.Sprintf("Policy sweep: per-element time vs batch size (%s search, burst workload)", kind),
		"batch size (elements per PutAll/GetN)", "per-element time (virt µs)", 16, series) + "\n" + table(rows, cols) +
		"\n" + fmt.Sprintf("Fluctuating producers (batch %d):\n", batch) + table(fluct, fluctCols)
	return text, csvTable(rows, cols) + "\n" + csvTable(fluct, fluctCols)
}
