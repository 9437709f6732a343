package harness

import (
	"fmt"
	"slices"

	"pools/internal/numa"
	"pools/internal/plot"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// This file measures the locality-aware policy extensions. The paper's
// Section 4.3 delay experiments add 1 µs .. 100 ms to every remote
// operation "to simulate a higher-cost remote access architecture" and
// find all three search algorithms converging — they are equally blind to
// where a victim lives, so every extra microsecond hits them alike. The
// locality sweep re-runs that experiment on a machine where "remote" is
// not one cost (numa.Clusters: near-remote one hop, far-remote four) and
// adds the policy the paper could not have: a victim order that consults
// the cost model (policy.LocalityOrder). The controller-trace experiment
// surfaces the other PR-2 follow-on, per-handle controllers, by plotting
// each handle's steal fraction and batch recommendation over virtual
// time.

// LocalityScales are the added per-remote-operation delays (virtual µs)
// swept by the locality experiment, the Section 4.3 range at one-decade
// steps.
func LocalityScales() []int64 { return []int64{0, 10, 100, 1000, 10000} }

// LocalityClusterSize is the cluster width of the swept topology: 16
// paper processors in four clusters of four.
const LocalityClusterSize = 4

// LocalityOrderNames lists the victim orders the sweep compares: the
// paper's three locality-blind algorithms plus the cost-ranked order.
func LocalityOrderNames() []string {
	return []string{"linear", "random", "tree", "locality"}
}

// orderSet builds a fresh policy set for one named victim-order
// configuration of the clustered sweeps (locality, hier, keyedloc) under
// the given cost model and hop topology. "ring" is the keyed pool's
// default sweep; the flat names are the paper's search orders.
func orderSet(name string, costs numa.CostModel, topo numa.Topology) policy.Set {
	hier := policy.HierarchicalOrder{Topo: topo}
	switch name {
	case "ring":
		return policy.Set{}
	case "linear":
		return policy.Set{Order: policy.Order{Kind: search.Linear}}
	case "random":
		return policy.Set{Order: policy.Order{Kind: search.Random}}
	case "tree":
		return policy.Set{Order: policy.Order{Kind: search.Tree}}
	case "locality":
		return policy.Set{Order: policy.LocalityOrder{Model: costs}}
	case "hier":
		return policy.Set{Order: hier}
	case "hier-adaptive":
		// Fresh per trial: each handle's spawned controller is both its
		// steal amount and its escalation tuner (policy.Escalator).
		p := policy.NewPerHandle()
		return policy.Set{Order: hier, Steal: p, Control: p}
	case "hier-place":
		return policy.Set{Order: hier, Place: policy.GiftToNearestEmptiest{Model: costs}}
	default:
		panic(fmt.Sprintf("harness: unknown victim order %q", name))
	}
}

// LocalityMix is the job mix of the locality sweep: the paper's sparse
// 30%-adds random-operations workload (the same scenario its own delay
// experiment stresses), chosen because every process both adds and
// removes — a slow searcher keeps claiming budget, so the comparison is
// not distorted by role drift the way asymmetric producer/consumer runs
// are at extreme delays.
const LocalityMix = 0.3

// LocalitySweep runs the sparse random-operations workload on a
// clustered machine at each added remote delay under each victim order
// (see orderSweep for the row layout). Expected
// shape: at zero delay all orders coincide with their fallbacks
// (LocalityOrder falls back to linear — with no per-victim cost
// difference there is nothing to rank); as the delay grows, random and
// tree pay the far-cluster rate on most probes (they wander across
// cluster boundaries, and the tree's round counters are remote besides)
// while the locality order exhausts its cheap in-cluster victims first
// and its curve pulls away below the blind orders.
func LocalitySweep(cfg Config, scales []int64) []Row {
	return orderSweep(cfg, scales, numa.Clusters{Size: LocalityClusterSize}, LocalityOrderNames())
}

// orderSweep runs the sparse random-operations workload on topo at each
// added remote delay under each named orderSet configuration. Rows carry
// the configuration as Series, topo's name as Case, and the delay as
// Point.X.
func orderSweep(cfg Config, scales []int64, topo numa.Topology, names []string) []Row {
	c := cfg.withDefaults()
	base := c.Costs.WithTopology(topo)
	var out []Row
	for _, name := range names {
		for _, d := range scales {
			cd := c
			cd.Costs = base.WithExtraDelay(d)
			pt := cd.average(float64(d), func(seed uint64) sim.RunResult {
				w := cd.workloadFor(workload.RandomOps)
				w.AddFraction = LocalityMix
				return sim.Run(sim.RunConfig{
					Workload: w, Search: search.Linear, Costs: cd.Costs,
					Seed: seed, Policies: orderSet(name, cd.Costs, topo),
				})
			})
			out = append(out, Row{Series: name, Case: topo.Name(), Point: pt})
		}
	}
	return out
}

// ratioCol is the table-only column comparing the challenger series'
// average operation time with the best of the baseline series at the
// same sweep position ("-" on every other row).
func ratioCol(head string, rows []Row, challenger string, baseline ...string) column[Row] {
	best := map[float64]float64{}
	for _, r := range rows {
		if !slices.Contains(baseline, r.Series) {
			continue
		}
		if v, ok := best[r.Point.X]; !ok || r.Point.AvgOpTime < v {
			best[r.Point.X] = r.Point.AvgOpTime
		}
	}
	return column[Row]{head: head, cell: func(r Row) string {
		if r.Series != challenger || best[r.Point.X] <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", r.Point.AvgOpTime/best[r.Point.X])
	}}
}

// renderLocality draws the locality sweep — one average-operation-time
// series per victim order across the delay scales (the paper's Figure 2
// metric), plus the measurement table with a locality/best-blind ratio
// column (< 1.0 means the cost-ranked order beat every blind order at
// that delay) — and the CSV block.
func renderLocality(rows []Row) (text, csv string) {
	cols := []column[Row]{
		seriesCol("order", "order"), xCol("delay (µs)", "delay_us"), opUSCol, removeUSCol, segsCol, stealsCol, abortsCol,
		ratioCol("vs best blind", rows, "locality", "linear", "random", "tree"), makespanCol.csvOnly(),
	}
	series := seriesBy(rows, rowSeries, rowX, func(r Row) float64 { return r.Point.AvgOpTime })
	return chart(fmt.Sprintf("Locality sweep: avg operation time vs added remote delay (clustered topology, %d-proc clusters)", LocalityClusterSize),
		"added delay per remote op (virt µs)", "avg op time (virt µs)", 16, series) + "\n" + table(rows, cols), csvTable(rows, cols)
}

// ControlTraceResult holds one controller-trajectory run: the per-handle
// steal fraction, batch recommendation, and cross-cluster probe fraction
// over virtual time under the per-handle adaptive policy on the burst
// producer/consumer workload (run on the clustered topology so the
// cross-probe accounting has boundaries to observe).
type ControlTraceResult struct {
	Kind      search.Kind
	Batch     int
	Producers map[int]bool
	// FracSampled[h] is handle h's steal fraction (permil) resampled at
	// uniform virtual-time steps; BatchSampled[h] the batch
	// recommendation; CrossSampled[h] the cumulative cross-cluster probe
	// fraction (permil).
	FracSampled  [][]int64
	BatchSampled [][]int64
	CrossSampled [][]int64
	// FinalFrac, FinalBatch, and FinalCross are each handle's last
	// sampled values.
	FinalFrac  []float64
	FinalBatch []int64
	FinalCross []float64
	Makespan   int64
}

// ControlTraceRun executes one burst producer/consumer trial under the
// per-handle adaptive policy with controller tracing on, on the clustered
// topology the locality sweep uses. Producers never remove, so their
// controllers hold the paper's steal-half fraction; consumers steal
// constantly and their fractions climb — per-handle control is visible as
// diverging rows, where the pool-wide adaptive set would show every row
// identical. Producers are contiguous (the paper's unbalanced Figure 3
// arrangement), so whole clusters hold no producer at all and the
// cross-probe panels have structure to show: a consumer sharing a cluster
// with a producer settles to a low cross fraction, one marooned in an
// all-consumer cluster pays the boundary on most probes.
func ControlTraceRun(cfg Config, kind search.Kind, producers, batch int) ControlTraceResult {
	c := cfg.withDefaults()
	res := c.burstTrace(kind, producers, batch, sim.RunConfig{ControlTrace: true})
	var end int64
	for i := range res.Controls {
		end = max(end, res.Controls[i].FracPermil.MaxTime())
	}
	times := bucketTimes(end)
	out := ControlTraceResult{
		Kind:      kind,
		Batch:     batch,
		Producers: producerSet(c.Procs, producers, workload.Contiguous),
		Makespan:  res.Makespan,
	}
	for i := range res.Controls {
		fr := res.Controls[i].FracPermil.SampleAt(times)
		ba := res.Controls[i].Batch.SampleAt(times)
		cr := res.Controls[i].CrossPermil.SampleAt(times)
		out.FracSampled = append(out.FracSampled, fr)
		out.BatchSampled = append(out.BatchSampled, ba)
		out.CrossSampled = append(out.CrossSampled, cr)
		out.FinalFrac = append(out.FinalFrac, float64(fr[len(fr)-1])/1000)
		out.FinalBatch = append(out.FinalBatch, ba[len(ba)-1])
		out.FinalCross = append(out.FinalCross, float64(cr[len(cr)-1])/1000)
	}
	return out
}

// burstTrace runs the trial both trace experiments record: the burst
// producer/consumer workload with contiguous producers under the
// per-handle adaptive policy on the clustered topology, with the
// recording switched on in rc.
func (c Config) burstTrace(kind search.Kind, producers, batch int, rc sim.RunConfig) sim.RunResult {
	set, err := policy.Named("per-handle")
	if err != nil {
		panic(err) // programmer error: the name is a registry constant
	}
	rc.Workload = c.workloadFor(workload.Burst)
	rc.Workload.Producers = producers
	rc.Workload.Arrangement = workload.Contiguous
	rc.Workload.BatchSize = batch
	rc.Search = kind
	rc.Costs = c.Costs.WithTopology(numa.Clusters{Size: LocalityClusterSize})
	rc.Seed = rng.SubSeed(c.Seed, 0)
	rc.Policies = set
	return sim.Run(rc)
}

// render draws the trajectory panels — steal fraction per handle over
// virtual time, then each handle's cross-cluster probe fraction — and the
// final-operating-point table; the CSV block holds the trajectories in
// long form, one row per (handle, sample).
func (r ControlTraceResult) render() (text, csv string) {
	title := fmt.Sprintf("Controller trajectories: per-handle steal fraction over time (%s search, burst batch %d)",
		r.Kind, r.Batch)
	body := plot.TracePanels(title, "handle", "steal fraction (permil)", r.FracSampled, r.Producers, "P", "C")
	crossTitle := fmt.Sprintf("Cross-cluster probe fraction per handle over time (%d-proc clusters)",
		LocalityClusterSize)
	body += "\n" + plot.TracePanels(crossTitle, "handle", "cross-probe fraction (permil)", r.CrossSampled, r.Producers, "P", "C")
	var cells, samples [][]string
	for h := range r.FracSampled {
		role := handleRole(r.Producers, h)
		cells = append(cells, []string{
			fmt.Sprintf("%d", h),
			role,
			fmt.Sprintf("%.3f", r.FinalFrac[h]),
			fmt.Sprintf("%d", r.FinalBatch[h]),
			fmt.Sprintf("%.3f", r.FinalCross[h]),
		})
		for i := range r.FracSampled[h] {
			samples = append(samples, []string{
				fmt.Sprintf("%d", h),
				role,
				fmt.Sprintf("%d", i),
				fmt.Sprintf("%d", r.FracSampled[h][i]),
				fmt.Sprintf("%d", r.BatchSampled[h][i]),
				fmt.Sprintf("%d", r.CrossSampled[h][i]),
			})
		}
	}
	table := plot.Table([]string{"handle", "role", "final steal fraction", "final batch", "final cross-frac"}, cells)
	return body + "\n" + table,
		plot.CSV([]string{"handle", "role", "sample", "frac_permil", "batch", "cross_permil"}, samples)
}

// handleRole names handle h's workload role for the trace tables.
func handleRole(producers map[int]bool, h int) string {
	if producers[h] {
		return "producer"
	}
	return "consumer"
}
