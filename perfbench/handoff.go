package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pools/internal/core"
	"pools/internal/search"
)

// handoff geometry: the paper's 16-segment machine with one producer and
// one consumer registered, at most handoffInFlight elements in flight.
const (
	handoffSegments = 16
	handoffProducer = 8
	handoffConsumer = 0
	handoffInFlight = 4
	handoffElems    = 1 << 18
)

// handoff: a producer goroutine on handle 8 puts uniquely numbered
// elements, one whenever fewer than handoffInFlight are in flight, and a
// consumer goroutine on handle 0 gets them, on a 16-segment pool with linear search and stats off. Most
// consumer Gets steal, so the engine search, the victim-locked
// OwnerDeque.StealInto and the moving-count deposit do the work; some
// Gets return empty after a full coverage pass and are retried.
type handoff struct {
	base  uint64 // first element id
	stats bool   // core.Options.CollectStats

	pool *core.Pool[uint64]
	seen []uint8   // seen[id-base] counts deliveries of id
	bad  int64     // delivered ids that were never put
	lat  []float64 // sampled Get waits (ns)
	logs []*spanLog
}

func newHandoff(seed uint64, stats bool) *handoff {
	return &handoff{
		base:  mix(seed ^ 0x6261),
		stats: stats,
		seen:  make([]uint8, handoffElems),
		lat:   latencyBuf(handoffElems),
	}
}

func (w *handoff) workers() int                  { return 2 }
func (w *handoff) trace(logs []*spanLog)         { w.logs = logs }
func (w *handoff) expectedOps() int64            { return handoffElems }
func (w *handoff) latencies() ([]float64, int64) { return sampled(w.lat) }

func (w *handoff) setup() error {
	p, err := core.New[uint64](core.Options{Segments: handoffSegments, Search: search.Linear, CollectStats: w.stats})
	if err != nil {
		return fmt.Errorf("handoff: %w", err)
	}
	p.Handle(handoffProducer).Register()
	p.Handle(handoffConsumer).Register()
	w.pool = p
	return nil
}

func (w *handoff) run() (int64, time.Duration) {
	clear(w.seen)
	consumed := new(paddedCount)
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() {
		defer wg.Done()
		w.produce(&consumed.n)
	}()
	go func() {
		defer wg.Done()
		w.consume(&consumed.n)
	}()
	wg.Wait()
	return handoffElems, time.Since(start)
}

func (w *handoff) produce(consumed *atomic.Int64) {
	h := w.pool.Handle(handoffProducer)
	var log *spanLog
	if w.logs != nil {
		log = w.logs[1]
	}
	for put := range int64(handoffElems) {
		for put-consumed.Load() >= handoffInFlight {
			// Closed loop: wait for the consumer to free a slot.
		}
		id := w.base + uint64(put)
		if log != nil {
			tracedPut(log, h, id)
		} else {
			h.Put(id)
		}
	}
}

func (w *handoff) consume(consumed *atomic.Int64) {
	h := w.pool.Handle(handoffConsumer)
	var log *spanLog
	if w.logs != nil {
		log = w.logs[0]
	}
	// Counters and samples stay in locals until the round ends, so the
	// consumer's loop writes no memory the producer reads.
	lat, seen := w.lat[:0], w.seen
	var bad int64
	defer func() { w.lat, w.bad = lat, bad }()
	for n := 0; n < handoffElems; n++ {
		sampled := n&63 == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		var v uint64
		for {
			var ok bool
			if log != nil {
				v, ok = tracedGet(log, w.pool, h)
			} else {
				v, ok = h.Get()
			}
			if ok {
				break
			}
			// An empty Get while the producer still owes elements is the
			// coverage rule's staleness backstop, not the end: retry.
		}
		if sampled {
			lat = append(lat, float64(time.Since(t0)))
		}
		consumed.Add(1)
		if i := v - w.base; i < handoffElems {
			seen[i]++
		} else {
			bad++
		}
	}
}

func (w *handoff) verify() (int64, error) {
	return checkLedger("handoff", w.seen, w.bad)
}

// checkLedger checks unique-ID conservation: every id delivered exactly
// once. seen counts the deliveries of each id and bad counts deliveries
// of ids never put. Each lost id and each extra
// delivery is one failed operation.
func checkLedger(name string, seen []uint8, bad int64) (int64, error) {
	var lost, dup int64
	for _, c := range seen {
		switch {
		case c == 0:
			lost++
		case c > 1:
			dup += int64(c) - 1
		}
	}
	if lost+dup+bad > 0 {
		return lost + dup + bad, fmt.Errorf("%s: %d ids lost, %d delivered twice or more, %d never put", name, lost, dup, bad)
	}
	return 0, nil
}
