package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pools/internal/core"
)

// layerOp names one kind of call the traced run times.
type layerOp uint8

const (
	opRound layerOp = iota // one workload round; the parent of every call span in it
	opCorePut
	opCoreGetLocal // Get with a non-empty own segment before the call
	opCoreGetSteal // Get with an empty own segment that returned an element
	opCoreGetEmpty // Get that returned ok=false
	opKeyedGet
	opSegPush
	opSegPop
	opSegSteal
	opSimRun
	numLayerOps
)

var layerOpNames = [numLayerOps]string{
	"round", "core.put", "core.get_local", "core.get_steal", "core.get_empty",
	"keyed.get", "segment.push", "segment.pop", "segment.steal", "sim.run",
}

// span is one timed call.
type span struct {
	op     layerOp
	worker uint8
	round  uint32 // the enclosing round span's id
	arg    int32  // call-specific: elements stolen, simulated model index
	start  int64  // ns since the run's epoch
	dur    int64  // ns
}

// opLog keeps a systematic sample of one op's spans: every call while the
// buffer has room, then every second call after halving the buffer, and so
// on, so memory stays bounded however many calls the round makes.
type opLog struct {
	calls  int64
	stride int64
	spans  []span
}

func (l *opLog) add(s span) {
	l.calls++
	if l.stride == 0 {
		l.stride = 1
	}
	if (l.calls-1)%l.stride != 0 {
		return
	}
	if len(l.spans) == cap(l.spans) {
		kept := l.spans[:0]
		for i := 0; i < len(l.spans); i += 2 {
			kept = append(kept, l.spans[i])
		}
		l.spans = kept
		l.stride *= 2
		if (l.calls-1)%l.stride != 0 {
			return
		}
	}
	l.spans = append(l.spans, s)
}

// spanLogCap bounds the spans one goroutine keeps per op.
const spanLogCap = 1 << 13

// spanLog is one goroutine's span record. A goroutine owns its log; the
// runner reads it only after the goroutine has been joined.
type spanLog struct {
	epoch  time.Time
	worker uint8
	round  uint32
	ops    [numLayerOps]opLog
}

func newSpanLog(epoch time.Time, worker int) *spanLog {
	l := &spanLog{epoch: epoch, worker: uint8(worker)}
	for i := range l.ops {
		l.ops[i].spans = make([]span, 0, spanLogCap)
	}
	return l
}

func (l *spanLog) add(op layerOp, t0 time.Time, d time.Duration, arg int) {
	l.ops[op].add(span{op: op, worker: l.worker, round: l.round, arg: int32(arg),
		start: int64(t0.Sub(l.epoch)), dur: int64(d)})
}

// durs returns the sampled durations (ns) of op across logs.
func durs(op layerOp, logs ...*spanLog) []float64 {
	var out []float64
	for _, l := range logs {
		for _, s := range l.ops[op].spans {
			out = append(out, float64(s.dur))
		}
	}
	return out
}

// calls returns how many calls of op the logs saw, sampled or not.
func calls(op layerOp, logs ...*spanLog) int64 {
	var n int64
	for _, l := range logs {
		n += l.ops[op].calls
	}
	return n
}

// tracedGet times one core Get and classifies it from outside: local when
// the caller's own segment held elements just before the call.
func tracedGet[T any](l *spanLog, p *core.Pool[T], h *core.Handle[T]) (T, bool) {
	local := p.SegmentLen(h.ID()) > 0
	t0 := time.Now()
	v, ok := h.Get()
	d := time.Since(t0)
	switch {
	case !ok:
		l.add(opCoreGetEmpty, t0, d, 0)
	case local:
		l.add(opCoreGetLocal, t0, d, 0)
	default:
		l.add(opCoreGetSteal, t0, d, 0)
	}
	return v, ok
}

func tracedPut[T any](l *spanLog, h *core.Handle[T], v T) {
	t0 := time.Now()
	h.Put(v)
	l.add(opCorePut, t0, time.Since(t0), 0)
}

// spanOverhead is the trimmed mean cost of an empty span: the two clock
// reads every traced call pays. Layer times are reported net of it.
func spanOverhead() float64 {
	xs := make([]float64, 1<<16)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return trimmedMean(xs)
}

// writeSpans writes every kept span as CSV to path.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,worker,round,arg,start_ns,dur_ns")
	for _, l := range logs {
		for op := range l.ops {
			for _, s := range l.ops[op].spans {
				fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", layerOpNames[s.op], s.worker, s.round, s.arg, s.start, s.dur)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
