package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pools/internal/core"
	"pools/internal/search"
)

// tasktree: two workers run a seeded divide-and-conquer tree on a
// two-segment pool with linear search. Each task is split into two
// children Put locally until leaves of work 1 remain; the round ends when
// no task is outstanding. It is the paper's motivating traffic, task
// scheduling with locality: the owner fast path and (with stats on) the
// stats layer do almost all the work, and steals are rare.
type tasktree struct {
	tr    tree
	want  treeSum
	stats bool // core.Options.CollectStats

	pool *core.Pool[task]
	sums [2]treeSum
	lat  [2][]float64 // sampled Get waits (ns) per worker
	logs []*spanLog
}

func newTasktree(seed uint64, stats bool) *tasktree {
	tr := newTree(seed)
	w := &tasktree{tr: tr, want: tr.expected(), stats: stats}
	for i := range w.lat {
		w.lat[i] = latencyBuf(int(w.want.tasks))
	}
	return w
}

func (w *tasktree) workers() int                  { return 2 }
func (w *tasktree) trace(logs []*spanLog)         { w.logs = logs }
func (w *tasktree) expectedOps() int64            { return int64(w.want.tasks) }
func (w *tasktree) latencies() ([]float64, int64) { return sampled(w.lat[0], w.lat[1]) }

func (w *tasktree) setup() error {
	p, err := core.New[task](core.Options{Segments: 2, Search: search.Linear, CollectStats: w.stats})
	if err != nil {
		return fmt.Errorf("tasktree: %w", err)
	}
	p.Handle(0).Register()
	p.Handle(1).Register()
	p.Handle(0).Put(w.tr.root())
	w.pool = p
	return nil
}

func (w *tasktree) run() (int64, time.Duration) {
	// pending is never below the number of outstanding tasks: a worker
	// publishes the +1 of a split before its children become visible, and
	// only delays publishing completions. So pending == 0 proves the tree
	// is done, and a Get that returns ok=false with pending > 0 is an empty
	// Get to retry, not the end.
	pending := new(paddedCount)
	pending.n.Store(1)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.work(i, &pending.n)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	return int64(w.sums[0].tasks + w.sums[1].tasks), wall
}

func (w *tasktree) work(i int, pending *atomic.Int64) {
	h := w.pool.Handle(i)
	defer h.Close() // lets the other worker's Get abort once this one is done
	var log *spanLog
	if w.logs != nil {
		log = w.logs[i]
	}
	// The worker's results stay in locals until it returns, so its loop
	// writes no memory the other worker reads.
	lat := w.lat[i][:0]
	var sum treeSum
	var local int64 // completions not yet published to pending
	defer func() { w.sums[i], w.lat[i] = sum, lat }()
	for {
		sampled := sum.tasks&63 == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		var t task
		for {
			var ok bool
			if log != nil {
				t, ok = tracedGet(log, w.pool, h)
			} else {
				t, ok = h.Get()
			}
			if ok {
				break
			}
			if local != 0 {
				pending.Add(local)
				local = 0
			}
			if pending.Load() == 0 {
				return
			}
		}
		if sampled {
			lat = append(lat, float64(time.Since(t0)))
		}
		sum.tasks++
		a, b, leaf := w.tr.split(t)
		if leaf {
			sum.leaves++
			sum.leafSum += t.id
			local--
			continue
		}
		if local++; local > 0 {
			pending.Add(local)
			local = 0
		}
		if log != nil {
			tracedPut(log, h, a)
			tracedPut(log, h, b)
		} else {
			h.Put(a)
			h.Put(b)
		}
	}
}

func (w *tasktree) verify() (int64, error) {
	var got treeSum
	got.add(w.sums[0])
	got.add(w.sums[1])
	return checkTree(got, w.want)
}

// checkTree compares a round's tree result with the sequential reference.
// A wrong count or checksum cannot name the lost or duplicated tasks, so
// it fails every task of the round.
func checkTree(got, want treeSum) (int64, error) {
	if got != want {
		return int64(want.tasks), fmt.Errorf("tasktree: got %d tasks, %d leaves, leaf sum %#x; want %d, %d, %#x",
			got.tasks, got.leaves, got.leafSum, want.tasks, want.leaves, want.leafSum)
	}
	return 0, nil
}
