package harness

import (
	"fmt"
	"strings"

	"pools/internal/plot"
	"pools/internal/search"
	"pools/internal/workload"
)

// Experiment is one entry of the poolbench -exp catalog: a table or
// figure of the paper's evaluation, an ablation, or an extension measured
// the same way. docs/EXPERIMENTS.md describes each entry and the shape
// its output should take.
type Experiment struct {
	Name  string
	Title string
	// CSV reports whether Run returns a machine-readable block.
	CSV bool
	// Run measures the experiment under cfg and renders it: the text
	// charts and tables and, when CSV is set, the CSV block. depth is the
	// tic-tac-toe expansion depth, read only by app.
	Run func(cfg Config, depth int) (text, csv string)
}

// Experiments returns the catalog in presentation order.
func Experiments() []Experiment {
	figTrace := func(figure string, kind search.Kind, arr workload.Arrangement) func(Config, int) (string, string) {
		return func(cfg Config, _ int) (string, string) {
			return FigTrace(cfg, figure, kind, arr, 5).Render(), ""
		}
	}
	return []Experiment{
		{"fig2", "average operation time vs job mix (tree search)", true, func(cfg Config, _ int) (string, string) {
			return Fig2(cfg).render()
		}},
		{"fig3", "segment sizes over time: linear search, contiguous producers", false, figTrace("Figure 3", search.Linear, workload.Contiguous)},
		{"fig4", "segment sizes over time: linear search, balanced producers", false, figTrace("Figure 4", search.Linear, workload.Balanced)},
		{"fig5", "segment sizes over time: tree search, contiguous producers", false, figTrace("Figure 5", search.Tree, workload.Contiguous)},
		{"fig6", "segment sizes over time: tree search, balanced producers", false, figTrace("Figure 6", search.Tree, workload.Balanced)},
		{"fig7", "elements stolen per steal vs producers (tree search, errata orientation)", true, func(cfg Config, _ int) (string, string) {
			return Fig7(cfg).render()
		}},
		{"algos", "Section 4.3 algorithm comparison", false, func(cfg Config, _ int) (string, string) {
			return table(AlgoCompare(cfg), algoCols), ""
		}},
		{"arrange", "Section 4.2 contiguous vs balanced producers", false, func(cfg Config, _ int) (string, string) {
			var b strings.Builder
			for _, kind := range search.Kinds() {
				b.WriteString(table(ArrangementCompare(cfg, kind, 5), arrangeCols))
				b.WriteByte('\n')
			}
			return b.String(), ""
		}},
		{"delay", "Section 4.3 remote-delay sweep", false, func(cfg Config, _ int) (string, string) {
			return table(DelaySweep(cfg), delayCols), ""
		}},
		{"steal", "steal-half vs steal-one ablation", false, func(cfg Config, _ int) (string, string) {
			return table(StealPolicyAblation(cfg), stealCols), ""
		}},
		{"roles", "dynamic producer roles extension (Section 3.3)", false, func(cfg Config, _ int) (string, string) {
			return table(DynamicRoles(cfg), rolesCols), ""
		}},
		{"burst", "batch operations: per-element time vs batch size (burst workload)", true, func(cfg Config, _ int) (string, string) {
			return renderBurst(search.Tree, BurstSweep(cfg, search.Tree, 5, BurstBatchSweep()))
		}},
		{"policy", "steal/placement policy sweep: half vs one vs proportional vs adaptive (burst + fluctuating workloads)", true, func(cfg Config, _ int) (string, string) {
			const batch = 16
			return renderPolicy(search.Tree, PolicySweep(cfg, search.Tree, 5, BurstBatchSweep()),
				batch, PolicyFluctuate(cfg, search.Tree, 5, batch, []int{0, 100, 25}))
		}},
		{"locality", "locality-aware victim order vs the blind searches under clustered remote delays", true, func(cfg Config, _ int) (string, string) {
			return renderLocality(LocalitySweep(cfg, LocalityScales()))
		}},
		{"hier", "hierarchical cluster-first stealing vs flat and locality orders (cross-cluster probe fraction; two-level and three-level topologies)", true, func(cfg Config, _ int) (string, string) {
			flat, flatCSV := renderHier(HierSweep(cfg, LocalityScales()), fmt.Sprintf("%d-proc clusters", LocalityClusterSize))
			deep, deepCSV := renderHier(HierDeepSweep(cfg, LocalityScales()), DeepTopology().Name()+" three-level topology")
			return flat + "\n" + deep, flatCSV + "\n" + deepCSV
		}},
		{"keyedloc", "keyed pool sweep orders on a clustered topology (ring vs locality vs hierarchical rank)", true, func(cfg Config, _ int) (string, string) {
			return renderKeyedLoc(KeyedLocalitySweep(cfg, LocalityScales()))
		}},
		{"trace", "controller trajectories & flight-recorder event density per handle over virtual time", true, func(cfg Config, _ int) (string, string) {
			ctl, ctlCSV := ControlTraceRun(cfg, search.Tree, 5, 1).render()
			ev, evCSV := EventTraceRun(cfg, search.Tree, 5, 1).render()
			return ctl + "\n" + ev, ctlCSV + "\n" + evCSV
		}},
		{"tenants", "open-loop multi-tenant arrivals: per-tenant sojourn percentiles and steal interference", true, func(cfg Config, _ int) (string, string) {
			return renderTenants(TenantSweep(cfg, DefaultTenantCounts(), DefaultTenantSkews()))
		}},
		{"chaos", "failure injection: throughput dip and recovery under kill/revive churn", true, func(cfg Config, _ int) (string, string) {
			return renderChaos(search.Tree, ChaosSweep(cfg, search.Tree, DefaultChaosSchedules()))
		}},
		{"app", "Section 4.4 tic-tac-toe work-list comparison", false, func(cfg Config, depth int) (string, string) {
			return RenderApp(App(cfg, DefaultAppCosts(), depth, []int{1, 2, 4, 8, 16}, AppImpls())), ""
		}},
	}
}

// Row is one labelled measurement of a sweep: Series names the line or
// table group it belongs to (search kind, steal policy, victim order),
// Case the variant within it (scenario, arrangement, role schedule,
// topology), and Point.X the swept coordinate.
type Row struct {
	Series string
	Case   string
	Point  Point
}

// column is one column of an experiment's table and CSV block: head and
// cell render the table column, csv names the CSV column and csvCell
// formats it (nil repeats cell). An empty head makes the column CSV-only,
// an empty csv makes it table-only.
type column[R any] struct {
	head    string
	cell    func(R) string
	csv     string
	csvCell func(R) string
}

// table renders rows as a fixed-width text table of cols.
func table[R any](rows []R, cols []column[R]) string {
	header, cells := tabulate(rows, cols, false)
	return plot.Table(header, cells)
}

// csvTable renders rows as a CSV block of cols.
func csvTable[R any](rows []R, cols []column[R]) string {
	header, cells := tabulate(rows, cols, true)
	return plot.CSV(header, cells)
}

// tabulate picks the table (or CSV) columns of cols and formats every
// row's cells.
func tabulate[R any](rows []R, cols []column[R], csv bool) ([]string, [][]string) {
	var header []string
	var fmts []func(R) string
	for _, c := range cols {
		h, f := c.head, c.cell
		if csv {
			h = c.csv
			if c.csvCell != nil {
				f = c.csvCell
			}
		}
		if h != "" {
			header = append(header, h)
			fmts = append(fmts, f)
		}
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		for _, f := range fmts {
			cells[i] = append(cells[i], f(r))
		}
	}
	return header, cells
}

// seriesBy groups rows into one chart series per name, in order of first
// appearance, each point at (x(r), y(r)).
func seriesBy[R any](rows []R, name func(R) string, x, y func(R) float64) []plot.Series {
	var out []plot.Series
	index := map[string]int{}
	for _, r := range rows {
		n := name(r)
		i, ok := index[n]
		if !ok {
			i = len(out)
			index[n] = i
			out = append(out, plot.Series{Name: n})
		}
		out[i].X = append(out[i].X, x(r))
		out[i].Y = append(out[i].Y, y(r))
	}
	return out
}

// chart draws a line chart at the catalog's standard width.
func chart(title, xLabel, yLabel string, height int, series []plot.Series) string {
	return plot.LineChart(title, xLabel, yLabel, 70, height, series)
}

// Row accessors and label columns shared by the sweeps.
func rowSeries(r Row) string { return r.Series }
func rowCase(r Row) string   { return r.Case }
func rowX(r Row) float64     { return r.Point.X }
func rowXInt(r Row) string   { return fmt.Sprintf("%d", int64(r.Point.X)) }
func seriesCol(head, csv string) column[Row] {
	return column[Row]{head: head, cell: rowSeries, csv: csv}
}
func caseCol(head string) column[Row]   { return column[Row]{head: head, cell: rowCase} }
func xCol(head, csv string) column[Row] { return column[Row]{head: head, cell: rowXInt, csv: csv} }

// num is a numeric column: the table shows fmtF(get(r)/div), the CSV
// (when csv is set) get(r) in csvFmt.
func num[R any](head string, div float64, csv, csvFmt string, get func(R) float64) column[R] {
	return column[R]{
		head:    head,
		cell:    func(r R) string { return fmtF(get(r) / div) },
		csv:     csv,
		csvCell: func(r R) string { return fmt.Sprintf(csvFmt, get(r)) },
	}
}

// fixed is a numeric column shown in headFmt in the table and csvFmt in
// the CSV.
func fixed[R any](head, headFmt, csv, csvFmt string, get func(R) float64) column[R] {
	return column[R]{
		head:    head,
		cell:    func(r R) string { return fmt.Sprintf(headFmt, get(r)) },
		csv:     csv,
		csvCell: func(r R) string { return fmt.Sprintf(csvFmt, get(r)) },
	}
}

// count is an integer column, printed the same in the table and the CSV.
func count[R any](head, csv string, get func(R) int64) column[R] {
	return column[R]{head: head, cell: func(r R) string { return fmt.Sprintf("%d", get(r)) }, csv: csv}
}

// csvOnly drops c from the text table.
func (c column[R]) csvOnly() column[R] {
	c.head = ""
	return c
}

// The Point columns the sweeps share.
var (
	opMSCol     = num("op (ms)", 1000, "", "", func(r Row) float64 { return r.Point.AvgOpTime })
	addMSCol    = num("add (ms)", 1000, "", "", func(r Row) float64 { return r.Point.AvgAddTime })
	removeMSCol = num("remove (ms)", 1000, "", "", func(r Row) float64 { return r.Point.AvgRemoveTime })
	opUSCol     = num("µs/op", 1, "avg_op_us", "%.2f", func(r Row) float64 { return r.Point.AvgOpTime })
	removeUSCol = num("µs/remove", 1, "avg_remove_us", "%.2f", func(r Row) float64 { return r.Point.AvgRemoveTime })
	perElemCol  = num("µs/element", 1, "per_element_us", "%.2f", func(r Row) float64 { return r.Point.PerElementTime })
	segsCol     = num("segs/steal", 1, "segs_per_steal", "%.2f", func(r Row) float64 { return r.Point.SegmentsExamined })
	stolenCol   = num("stolen/steal", 1, "stolen_per_steal", "%.2f", func(r Row) float64 { return r.Point.ElementsStolen })
	stealsCol   = num("steals/op", 1, "steals_per_op", "%.4f", func(r Row) float64 { return r.Point.StealsPerOp })
	abortsCol   = num("aborts/op", 1, "aborts_per_op", "%.4f", func(r Row) float64 { return r.Point.AbortsPerOp })
	makespanCol = num("makespan (ms)", 1000, "makespan_us", "%.0f", func(r Row) float64 { return r.Point.MakespanMean })
	stealingCol = column[Row]{head: "%removes stealing", cell: func(r Row) string { return fmtF(r.Point.StealFraction * 100) },
		csv: "steal_fraction", csvCell: func(r Row) string { return fmt.Sprintf("%.4f", r.Point.StealFraction) }}
)
