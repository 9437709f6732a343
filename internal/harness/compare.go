package harness

import (
	"fmt"

	"pools/internal/policy"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// AlgoCompare reproduces the Section 4.3 comparison: the three algorithms
// under (a) the random operations model at a sparse mix, (b) the random
// model at a sufficient mix, and (c) the balanced producer/consumer model
// — operation times, segments examined per steal, and elements stolen.
//
// Expected shape: the tree algorithm examines the fewest segments and
// steals the most elements, but its operation times never beat linear or
// random ("the complexity of the tree search algorithm does not pay off").
//
// Rows carry the search kind as Series and the scenario as Case.
func AlgoCompare(cfg Config) []Row {
	c := cfg.withDefaults()
	var rows []Row
	for _, kind := range search.Kinds() {
		row := func(x float64, scenario string, run func(seed uint64) sim.RunResult) Row {
			return Row{Series: kind.String(), Case: scenario, Point: c.average(x, run)}
		}
		rows = append(rows,
			row(30, "random 30% adds (sparse)", func(seed uint64) sim.RunResult { return c.runRandom(kind, 0.3, seed) }),
			row(70, "random 70% adds (sufficient)", func(seed uint64) sim.RunResult { return c.runRandom(kind, 0.7, seed) }),
			row(5, "balanced prod/cons, 5 producers", func(seed uint64) sim.RunResult { return c.runPC(kind, 5, workload.Balanced, seed) }),
		)
	}
	return rows
}

// algoCols is the algorithm comparison table.
var algoCols = []column[Row]{
	seriesCol("search", ""), caseCol("scenario"), opMSCol, addMSCol, removeMSCol, segsCol, stolenCol, stealingCol,
}

// DelayRow is one point of the Section 4.3 remote-delay sweep.
type DelayRow struct {
	DelayUS  int64
	Scenario string
	Times    map[search.Kind]float64 // avg op time (µs) per algorithm
}

// DelaySweepDelays are the added per-remote-operation delays: the paper
// tried "a variety of different delays from 1 µsec per operation to 100
// msec per operation".
var DelaySweepDelays = []int64{0, 1, 10, 100, 1000, 10000, 100000}

// DelaySweep reproduces the Section 4.3 delay experiment on both stressed
// scenarios. Expected shape: the tree algorithm "never performed better
// than either of the two other search algorithms; in fact, as the delay
// increased all three algorithms converged to very nearly identical
// performance graphs."
func DelaySweep(cfg Config) []DelayRow {
	c := cfg.withDefaults()
	var out []DelayRow
	for _, d := range DelaySweepDelays {
		costs := c.Costs.WithExtraDelay(d)
		cd := c
		cd.Costs = costs
		random := DelayRow{DelayUS: d, Scenario: "random 30% adds", Times: map[search.Kind]float64{}}
		pc := DelayRow{DelayUS: d, Scenario: "balanced prod/cons 5", Times: map[search.Kind]float64{}}
		for _, kind := range search.Kinds() {
			rpt := cd.average(float64(d), func(seed uint64) sim.RunResult {
				return cd.runRandom(kind, 0.3, seed)
			})
			random.Times[kind] = rpt.AvgOpTime
			ppt := cd.average(float64(d), func(seed uint64) sim.RunResult {
				return cd.runPC(kind, 5, workload.Balanced, seed)
			})
			pc.Times[kind] = ppt.AvgOpTime
		}
		out = append(out, random, pc)
	}
	return out
}

// delayTimeCol is one algorithm's operation time (ms) in the delay table.
func delayTimeCol(kind search.Kind) column[DelayRow] {
	return num(kind.String()+" (ms)", 1000, "", "", func(r DelayRow) float64 { return r.Times[kind] })
}

// delayCols is the delay sweep table, with a convergence ratio column
// (tree time / best simple-algorithm time; -> 1.0 means converged).
var delayCols = []column[DelayRow]{
	{head: "delay (µs)", cell: func(r DelayRow) string { return fmt.Sprintf("%d", r.DelayUS) }},
	{head: "scenario", cell: func(r DelayRow) string { return r.Scenario }},
	delayTimeCol(search.Linear), delayTimeCol(search.Random), delayTimeCol(search.Tree),
	{head: "tree/best", cell: func(r DelayRow) string {
		ratio := 0.0
		if best := min(r.Times[search.Linear], r.Times[search.Random]); best > 0 {
			ratio = r.Times[search.Tree] / best
		}
		return fmt.Sprintf("%.3f", ratio)
	}},
}

// StealPolicyAblation compares steal-half with steal-one (the ablation
// backing the paper's design rationale: stealing half balances reserves
// and reduces steal frequency) on the balanced producer/consumer workload
// (5 producers). That scenario steals multi-element hauls, so the
// policies separate cleanly; at sparse random mixes most victims hold a
// single element and the two policies coincide. Rows carry the search
// kind as Series and the steal policy's name as Case.
func StealPolicyAblation(cfg Config) []Row {
	c := cfg.withDefaults()
	w := c.workloadFor(workload.ProducerConsumer)
	w.Producers = 5
	w.Arrangement = workload.Balanced
	var out []Row
	for _, kind := range search.Kinds() {
		for _, steal := range []policy.StealAmount{policy.Half{}, policy.One{}} {
			out = append(out, Row{Series: kind.String(), Case: steal.Name(), Point: c.average(0, func(seed uint64) sim.RunResult {
				return sim.Run(sim.RunConfig{Workload: w, Search: kind, Costs: c.Costs, Seed: seed, Policies: policy.Set{Steal: steal}})
			})})
		}
	}
	return out
}

// stealCols is the steal-policy ablation table.
var stealCols = []column[Row]{seriesCol("search", ""), caseCol("policy"), opMSCol, stealsCol, stolenCol, segsCol}

// ArrangementCompare compares contiguous vs balanced producer placement
// for one algorithm (the Section 4.2 headline: "Balancing the producers
// consistently lowered the average time for add operations, remove
// operations, and steals"), running the producer/consumer workload with
// k producers under both arrangements. Rows carry the search kind as
// Series and the arrangement as Case.
func ArrangementCompare(cfg Config, kind search.Kind, producers int) []Row {
	c := cfg.withDefaults()
	var out []Row
	for _, arr := range []workload.Arrangement{workload.Contiguous, workload.Balanced} {
		out = append(out, Row{Series: kind.String(), Case: arr.String(), Point: c.average(float64(producers), func(seed uint64) sim.RunResult {
			return c.runPC(kind, producers, arr, seed)
		})})
	}
	return out
}

// arrangeCols is the arrangement comparison table.
var arrangeCols = []column[Row]{
	seriesCol("search", ""), caseCol("producers"), opMSCol, addMSCol, removeMSCol, stolenCol, stealsCol, segsCol,
}

// DynamicRoles compares fixed producer roles with rotating ones (the
// paper's Section 3.3 note that "in many real systems, the identity of
// the processes acting as producers may change dynamically over time"),
// running the contiguous producer/consumer workload with fixed roles and
// with roles rotating one position at several cadences. Rotation spreads
// production around the ring over time, so it should recover some of the
// balanced arrangement's benefit without any static placement decision.
// Rows carry the search kind as Series, the role schedule as Case, and
// the rotation cadence (0 = fixed roles) as Point.X.
func DynamicRoles(cfg Config) []Row {
	c := cfg.withDefaults()
	var out []Row
	for _, kind := range []search.Kind{search.Linear, search.Tree} {
		for _, flip := range []int{0, 50, 10} {
			roles := "fixed"
			if flip > 0 {
				roles = fmt.Sprintf("rotate/%d ops", flip)
			}
			out = append(out, Row{Series: kind.String(), Case: roles, Point: c.average(float64(flip), func(seed uint64) sim.RunResult {
				w := c.workloadFor(workload.ProducerConsumer)
				w.Producers = 5
				w.Arrangement = workload.Contiguous
				w.RoleFlipEvery = flip
				return sim.Run(sim.RunConfig{
					Workload: w, Search: kind, Costs: c.Costs, Seed: seed,
				})
			})})
		}
	}
	return out
}

// rolesCols is the dynamic-roles table.
var rolesCols = []column[Row]{seriesCol("search", ""), caseCol("roles"), opMSCol, stolenCol, stealsCol, abortsCol}
