package main

// The benchmark's inputs come from its own generator, not the library's
// internal/rng, so a change to the library cannot change what a seed
// generates.

// mix is the splitmix64 finalizer: a bijection on uint64 that spreads
// every input bit over the output.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// stream is a splitmix64 generator.
type stream struct{ s uint64 }

func (r *stream) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// task is one node of the tasktree workload's divide-and-conquer tree.
type task struct {
	id   uint64 // hash of the path from the root; a leaf contributes it to the checksum
	work uint32 // leaves have work 1
}

// treeRootWork is the tasktree root's work: every split conserves work and
// leaves carry exactly 1, so the tree always has 2^21 leaves and
// 2^22 - 1 tasks whatever the seed draws.
const treeRootWork = 1 << 19

// tree is the seeded task tree.
type tree struct{ key uint64 }

func newTree(seed uint64) tree { return tree{key: mix(seed ^ 0x7a5c)} }

func (tr tree) root() task { return task{id: mix(tr.key), work: treeRootWork} }

// split divides t at a ratio drawn from its id between 1/8 and 7/8. It
// reports leaf for a task of work 1, which has no children.
func (tr tree) split(t task) (a, b task, leaf bool) {
	if t.work <= 1 {
		return task{}, task{}, true
	}
	h := mix(t.id ^ tr.key)
	left := uint32(uint64(t.work) * (128 + h%769) / 1024)
	left = min(max(left, 1), t.work-1)
	return task{id: mix(t.id + 1), work: left}, task{id: mix(t.id + 2), work: t.work - left}, false
}

// treeSum is a tasktree result: how many tasks ran, how many were leaves,
// and the wrapping sum of the leaf ids.
type treeSum struct {
	tasks, leaves, leafSum uint64
}

func (s *treeSum) add(o treeSum) {
	s.tasks += o.tasks
	s.leaves += o.leaves
	s.leafSum += o.leafSum
}

// expected walks the tree sequentially: the reference a concurrent run
// must reproduce.
func (tr tree) expected() treeSum {
	var s treeSum
	stack := []task{tr.root()}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.tasks++
		a, b, leaf := tr.split(t)
		if leaf {
			s.leaves++
			s.leafSum += t.id
			continue
		}
		stack = append(stack, a, b)
	}
	return s
}

// keyedClasses is the number of key classes in keyed-exchange.
const keyedClasses = 1024

// keyedOps encodes one keyed-exchange operation: class<<1 | 1 for a Put,
// class<<1 for a Get.
type keyedOp uint32

func (o keyedOp) put() bool     { return o&1 == 1 }
func (o keyedOp) class() uint32 { return uint32(o >> 1) }

// keyedStream draws worker w's operations: a 50/50 Put/Get mix where Puts
// name classes of w's own parity and Gets classes of the other parity, so
// every element has to cross segments to be consumed.
func keyedStream(seed uint64, w, n int) []keyedOp {
	r := stream{s: mix(seed ^ uint64(0x6b65+w))}
	ops := make([]keyedOp, n)
	for i := range ops {
		x := r.next()
		c := uint32(x>>1) % (keyedClasses / 2) * 2
		if x&1 == 1 {
			ops[i] = keyedOp((c+uint32(w))<<1 | 1)
		} else {
			ops[i] = keyedOp((c + uint32(1-w)) << 1)
		}
	}
	return ops
}
