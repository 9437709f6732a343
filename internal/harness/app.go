package harness

import (
	"fmt"

	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/ttt"
)

// AppImpl selects the work-list implementation for the tic-tac-toe study.
type AppImpl int

// Work-list implementations compared in Section 4.4.
const (
	ImplStack AppImpl = iota + 1 // global-lock stack (the paper's original)
	ImplPoolLinear
	ImplPoolRandom
	ImplPoolTree
)

// String names the implementation.
func (i AppImpl) String() string {
	switch i {
	case ImplStack:
		return "global-stack"
	case ImplPoolLinear:
		return "pool-linear"
	case ImplPoolRandom:
		return "pool-random"
	case ImplPoolTree:
		return "pool-tree"
	default:
		return fmt.Sprintf("AppImpl(%d)", int(i))
	}
}

// AppImpls lists all implementations in presentation order.
func AppImpls() []AppImpl {
	return []AppImpl{ImplStack, ImplPoolLinear, ImplPoolRandom, ImplPoolTree}
}

// searchKind maps a pool implementation to its search algorithm.
func (i AppImpl) searchKind() search.Kind {
	switch i {
	case ImplPoolLinear:
		return search.Linear
	case ImplPoolRandom:
		return search.Random
	case ImplPoolTree:
		return search.Tree
	default:
		return 0
	}
}

// AppCosts calibrates the simulated application per DESIGN.md's
// substitution: a 1989-scale position evaluation dominates list overheads,
// while the global stack's single critical section serializes.
type AppCosts struct {
	// PositionCost is the work to process one board position (µs).
	PositionCost int64
	// StackAccess is the cost of one global-stack critical section,
	// including the remote reference to the central lock (µs).
	StackAccess int64
}

// DefaultAppCosts mirrors the era's scale: ~1 ms to evaluate or expand a
// position, ~50 µs per remote stack access.
func DefaultAppCosts() AppCosts {
	return AppCosts{PositionCost: 1000, StackAccess: 50}
}

// AppRow is one (implementation, processors) measurement.
type AppRow struct {
	Impl      AppImpl
	Procs     int
	Makespan  int64 // virtual µs
	Speedup   float64
	Positions int64 // leaf positions evaluated
	RootValue int
	Correct   bool // matches the sequential minimax value
}

// App reproduces Section 4.4: parallel 3D tic-tac-toe minimax with the
// work list implemented as each candidate structure, over a processor
// sweep. Speedups are relative to the same implementation on one
// processor. Expected shape: the three pools are nearly identical with
// near-linear speedup; the global-lock stack is materially slower at 16
// processors with clearly worse speedup (paper: 40% slower, 10.7 vs
// 14.6-15.4).
func App(cfg Config, appCosts AppCosts, depth int, procsList []int, impls []AppImpl) []AppRow {
	c := cfg.withDefaults()
	var board ttt.Board
	wantValue, wantLeaves := ttt.Minimax(board, ttt.X, depth)

	var rows []AppRow
	base := map[AppImpl]int64{}
	for _, impl := range impls {
		for _, procs := range procsList {
			makespan, value, leaves := runApp(c, appCosts, impl, board, depth, procs)
			row := AppRow{
				Impl:      impl,
				Procs:     procs,
				Makespan:  makespan,
				Positions: leaves,
				RootValue: value,
				Correct:   value == wantValue && leaves == wantLeaves,
			}
			if procs == 1 {
				base[impl] = makespan
			}
			if b := base[impl]; b > 0 && makespan > 0 {
				row.Speedup = float64(b) / float64(makespan)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// runApp executes one simulated expansion and returns (makespan, root
// value, leaves evaluated).
func runApp(c Config, ac AppCosts, impl AppImpl, board ttt.Board, depth, procs int) (int64, int, int64) {
	s := sim.New(procs)
	var eng *ttt.Engine
	switch impl {
	case ImplStack:
		stack := &simStack{cost: ac.StackAccess}
		eng = ttt.NewEngine(board, ttt.X, depth, preSeed{stack: stack})
		for id := 0; id < procs; id++ {
			s.Spawn(id, func(env *sim.Env) {
				src := &simStackSource{env: env, stack: stack}
				appWorker(env, eng, src, ac, nil)
			})
		}
	default:
		pool := sim.NewPool[*ttt.Node](sim.PoolConfig{
			Procs:  procs,
			Search: impl.searchKind(),
			Costs:  c.Costs,
			Seed:   rng.SubSeed(c.Seed, procs),
		})
		eng = ttt.NewEngine(board, ttt.X, depth, preSeed{pool: pool})
		for id := 0; id < procs; id++ {
			s.Spawn(id, func(env *sim.Env) {
				src := simPoolSource{pr: pool.Proc(env)}
				appWorker(env, eng, src, ac, pool.AbortAll)
			})
		}
	}
	makespan := s.Run()
	return makespan, eng.RootValue(), eng.Evaluated()
}

// appWorker is the per-processor loop: pull a position, charge the
// processing cost, expand. onExit releases peers stuck searching.
func appWorker(env *sim.Env, eng *ttt.Engine, src ttt.Source, ac AppCosts, onExit func()) {
	for !eng.Done() {
		n, ok := src.Get()
		if !ok {
			continue // Get charged time; re-check Done
		}
		env.Compute(ac.PositionCost)
		eng.Expand(n, src)
	}
	if onExit != nil {
		onExit()
	}
}

// preSeed places the root task before the simulation starts (no virtual
// time to charge yet).
type preSeed struct {
	pool  *sim.Pool[*ttt.Node]
	stack *simStack
}

func (p preSeed) Put(n *ttt.Node) {
	if p.pool != nil {
		p.pool.Inject(n)
		return
	}
	p.stack.items = append(p.stack.items, n)
}

func (p preSeed) Get() (*ttt.Node, bool) { return nil, false }

// simPoolSource adapts a simulated pool processor to ttt.Source.
type simPoolSource struct{ pr *sim.Proc[*ttt.Node] }

func (s simPoolSource) Put(n *ttt.Node)        { s.pr.Put(n) }
func (s simPoolSource) Get() (*ttt.Node, bool) { return s.pr.Get() }

// simStack is the simulated global-lock stack: one resource serializes
// every access.
type simStack struct {
	res   sim.Resource
	items []*ttt.Node
	cost  int64
}

// simStackSource is one processor's view of the shared stack.
type simStackSource struct {
	env   *sim.Env
	stack *simStack
}

func (s *simStackSource) Put(n *ttt.Node) {
	s.env.Charge(&s.stack.res, s.stack.cost)
	s.stack.items = append(s.stack.items, n)
}

func (s *simStackSource) Get() (*ttt.Node, bool) {
	s.env.Charge(&s.stack.res, s.stack.cost)
	items := s.stack.items
	if len(items) == 0 {
		return nil, false
	}
	n := items[len(items)-1]
	s.stack.items = items[:len(items)-1]
	return n, true
}

// RenderApp formats the Section 4.4 table.
func RenderApp(rows []AppRow) string {
	return table(rows, []column[AppRow]{
		{head: "work list", cell: func(r AppRow) string { return r.Impl.String() }},
		count("procs", "", func(r AppRow) int64 { return int64(r.Procs) }),
		count("makespan (virt µs)", "", func(r AppRow) int64 { return r.Makespan }),
		{head: "speedup", cell: func(r AppRow) string { return fmt.Sprintf("%.1f", r.Speedup) }},
		count("positions", "", func(r AppRow) int64 { return r.Positions }),
		{head: "correct", cell: func(r AppRow) string {
			if r.Correct {
				return "yes"
			}
			return "NO"
		}},
	})
}
