package main

import (
	"fmt"
	"sync"
	"time"

	"pools/internal/keyed"
)

// keyedOpsPerWorker is each keyed-exchange worker's operation count.
const keyedOpsPerWorker = 1 << 19

// keyedExchange: two workers on a two-segment keyed pool with 1024 key
// classes run seeded 50/50 Put/Get streams. Each worker Puts only classes
// of its own parity and Gets only classes of the other parity, so every
// element crosses segments: the keyed layer's bucket maps, remote sweeps
// and bucket steals do the work. A Get that finds no element of its class
// is a miss, which is legal: the class may simply be empty.
type keyedExchange struct {
	ops  [2][]keyedOp
	puts [2]int // Puts in each stream

	pool      *keyed.Pool[uint32, uint64]
	seen      []uint8 // seen[index(id)] counts deliveries of id
	bad       int64   // delivered ids that were never put
	gets      [2]int64
	misses    [2]int64
	remote    int64        // remote probes of the last round, read after the join
	lat       [2][]float64 // sampled Get latencies (ns) per worker
	logs      []*spanLog
	delivered [2][]uint64 // each worker's delivered ids, entered into seen after the join
}

func newKeyedExchange(seed uint64) *keyedExchange {
	w := &keyedExchange{seen: make([]uint8, 2*keyedOpsPerWorker)}
	for i := range w.ops {
		w.ops[i] = keyedStream(seed, i, keyedOpsPerWorker)
		for _, op := range w.ops[i] {
			if op.put() {
				w.puts[i]++
			}
		}
		w.lat[i] = latencyBuf(keyedOpsPerWorker)
		w.delivered[i] = make([]uint64, 0, keyedOpsPerWorker)
	}
	return w
}

// keyedID numbers worker w's i-th Put; keyedIndex inverts it into the
// ledger.
func keyedID(w, i int) uint64         { return uint64(w)<<40 | uint64(i) }
func keyedIndex(id uint64) uint64     { return (id>>40)*keyedOpsPerWorker + id&(1<<40-1) }
func (w *keyedExchange) workers() int { return 2 }

func (w *keyedExchange) trace(logs []*spanLog)         { w.logs = logs }
func (w *keyedExchange) expectedOps() int64            { return 2 * keyedOpsPerWorker }
func (w *keyedExchange) latencies() ([]float64, int64) { return sampled(w.lat[0], w.lat[1]) }

func (w *keyedExchange) setup() error {
	p, err := keyed.New[uint32, uint64](keyed.Options{Segments: 2})
	if err != nil {
		return fmt.Errorf("keyed-exchange: %w", err)
	}
	w.pool = p
	return nil
}

func (w *keyedExchange) run() (int64, time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.work(i)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	w.remote, _ = w.pool.ProbeStats()
	return 2 * keyedOpsPerWorker, wall
}

func (w *keyedExchange) work(i int) {
	h := w.pool.Handle(i)
	var log *spanLog
	if w.logs != nil {
		log = w.logs[i]
	}
	// The worker's results stay in locals until it returns, so its loop
	// writes no memory the other worker reads.
	lat, got := w.lat[i][:0], w.delivered[i][:0]
	var gets, misses int64
	next := 0
	for _, op := range w.ops[i] {
		if op.put() {
			h.Put(op.class(), keyedID(i, next))
			next++
			continue
		}
		sampled := gets&63 == 0
		gets++
		var v uint64
		var ok bool
		switch {
		case log != nil:
			t0 := time.Now()
			v, ok = h.Get(op.class())
			d := time.Since(t0)
			log.add(opKeyedGet, t0, d, 0)
			if sampled {
				lat = append(lat, float64(d))
			}
		case sampled:
			t0 := time.Now()
			v, ok = h.Get(op.class())
			lat = append(lat, float64(time.Since(t0)))
		default:
			v, ok = h.Get(op.class())
		}
		if !ok {
			misses++
			continue
		}
		got = append(got, v)
	}
	w.lat[i], w.delivered[i], w.gets[i], w.misses[i] = lat, got, gets, misses
}

// record enters delivered ids into the ledger.
func (w *keyedExchange) record(ids []uint64) {
	for _, id := range ids {
		if i := keyedIndex(id); i < uint64(len(w.seen)) && id&(1<<40-1) < keyedOpsPerWorker {
			w.seen[i]++
		} else {
			w.bad++
		}
	}
}

func (w *keyedExchange) verify() (int64, error) {
	// Elements got plus elements left must equal elements put; then the
	// leftovers are drained so the ledger can name lost and duplicated ids.
	clear(w.seen)
	w.bad = 0
	w.record(w.delivered[0])
	w.record(w.delivered[1])
	got := int64(len(w.delivered[0]) + len(w.delivered[1]))
	left := int64(w.pool.Len())
	put := int64(w.puts[0] + w.puts[1])
	var failed int64
	var firstErr error
	if got+left != put {
		failed = max(got+left-put, put-got-left)
		firstErr = fmt.Errorf("keyed-exchange: %d got + %d left != %d put", got, left, put)
	}
	h := w.pool.Handle(0)
	drained := w.delivered[0][:0]
	for {
		_, v, ok := h.GetAny()
		if !ok {
			break
		}
		drained = append(drained, v)
	}
	w.record(drained)
	// Ids never put by a stream are not in the ledger's domain: mark them
	// so checkLedger counts only real losses.
	for i := range w.puts {
		for j := w.puts[i]; j < keyedOpsPerWorker; j++ {
			w.seen[keyedIndex(keyedID(i, j))] = 1
		}
	}
	if n, err := checkLedger("keyed-exchange", w.seen, w.bad); err != nil {
		failed = max(failed, n)
		if firstErr == nil {
			firstErr = err
		}
	}
	return failed, firstErr
}
