package harness

import (
	"fmt"

	"pools/internal/numa"
)

// This file measures the hierarchical-steal extension. The locality sweep
// (locality.go) showed a cost-ranked victim order pulling ahead of the
// paper's blind searches once "remote" stops being one cost; the
// hierarchical sweep asks the follow-on question: is ranking enough, or
// should a searcher *refuse* to cross a cluster boundary until its own
// cluster has proven fruitless? policy.HierarchicalOrder escalates
// through hop rings under a tunable fruitless-probe threshold, and
// policy.GiftToNearestEmptiest attacks the same cost from the add side —
// both are judged here by the fraction of remote probes that cross a
// cluster boundary (the dominant cost on loosely-coupled machines) next
// to the usual average operation time.

// HierOrderNames lists the configurations the hierarchical sweep
// compares: two flat paper orders, the cost-ranked order, hierarchical
// escalation (static threshold and per-handle-tuned), and hierarchical
// stealing paired with the topology-aware placement. (On the two-ring
// cluster topology the default-threshold hierarchical searcher coincides
// with the cost-ranked order whenever the delay scale is non-zero — both
// walk cluster-first in ring order — so the rows that separate "hier"
// from "locality" are scale 0, where locality has nothing to rank, and
// the tuned/placement variants.)
func HierOrderNames() []string {
	return []string{"linear", "random", "locality", "hier", "hier-adaptive", "hier-place"}
}

// HierSweep runs the sparse random-operations workload on the clustered
// machine at each added remote delay under each configuration (see
// orderSweep; the topology name in Case keeps the two-level and
// three-level sweeps' CSV rows distinguishable). Expected shape: the hierarchical orders hold a structurally lower cross-cluster
// probe fraction than the flat orders at every delay (they re-probe the
// near ring before crossing), and as the delay scale grows that
// discipline compounds — each avoided crossing is worth Far hops of
// RemoteExtra — so their operation-time curves pull below the flat
// orders' alongside (and then past) the merely-ranked locality order.
func HierSweep(cfg Config, scales []int64) []Row {
	return orderSweep(cfg, scales, numa.Clusters{Size: LocalityClusterSize}, HierOrderNames())
}

// DeepTopology is the three-level machine the deep hierarchical sweep
// runs on: 16 paper processors as eight 2-processor boards in two
// 8-processor cabinets (numa.NestedClusters{Inner: 2, Outer: 8}) — hop
// distances 1 (board), 2 (cabinet), 4 (machine). Each searcher's
// escalation ladder has three rings here, so the threshold fires twice
// per fully-fruitless search instead of once.
func DeepTopology() numa.Topology { return numa.NestedClusters{Inner: 2, Outer: 8} }

// HierDeepSweep is HierSweep on the three-level DeepTopology — the
// deeper-than-two-level machine the escalation ladder supports but the
// two-level sweep never exercises. The cross-probe fraction counts every
// probe that leaves the searcher's inner cluster (hop distance > 1), so
// hierarchical orders start from a higher flat baseline here (any
// off-board probe is "cross") and the discipline of climbing board →
// cabinet → machine shows up as a larger relative reduction.
func HierDeepSweep(cfg Config, scales []int64) []Row {
	return orderSweep(cfg, scales, DeepTopology(), HierOrderNames())
}

// renderHier draws one hierarchical sweep, labelling the charts with the
// topology description: the cross-cluster probe fraction per
// configuration across the delay scales (the discipline the policy exists
// to enforce), the average-operation-time chart, and the measurement
// table with a hier/best-flat time ratio column (< 1.0 means
// cluster-first escalation beat every flat order at that delay). The CSV
// block carries the topology column.
func renderHier(rows []Row, label string) (text, csv string) {
	cols := []column[Row]{
		seriesCol("order", "order"), {csv: "topology", cell: rowCase}, xCol("delay (µs)", "delay_us"),
		fixed("cross-frac", "%.3f", "cross_probe_frac", "%.4f", func(r Row) float64 { return r.Point.CrossProbeFrac }),
		opUSCol, segsCol, stealsCol, abortsCol,
		ratioCol("vs best flat", rows, "hier", "linear", "random"), makespanCol.csvOnly(),
	}
	xLabel := "added delay per remote op (virt µs)"
	frac := seriesBy(rows, rowSeries, rowX, func(r Row) float64 { return r.Point.CrossProbeFrac })
	times := seriesBy(rows, rowSeries, rowX, func(r Row) float64 { return r.Point.AvgOpTime })
	return chart(fmt.Sprintf("Hierarchical sweep: cross-cluster probe fraction vs added remote delay (%s)", label),
			xLabel, "cross-cluster probe fraction", 14, frac) + "\n" +
			chart(fmt.Sprintf("Hierarchical sweep: avg operation time vs added remote delay (%s)", label),
				xLabel, "avg op time (virt µs)", 14, times) + "\n" + table(rows, cols),
		csvTable(rows, cols)
}
