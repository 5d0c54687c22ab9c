// Package stream provides the queue primitives that carry event and data
// streams between AnyComponents: MPSC is an unbounded multi-producer
// queue used for AC inboxes, and Mailbox adds blocking receive on top of
// it.
package stream

import (
	"sync"
	"sync/atomic"
)

// cacheLinePad separates hot atomics so producer and consumer do not
// false-share a cache line.
type cacheLinePad struct{ _ [64]byte }

// mpscNode is a link in the MPSC queue. Nodes are heap allocated; Go's GC
// makes the classic Vyukov design safe without hazard pointers. Popped
// nodes are recycled through a per-queue pool, so a steady-state
// push/pop cycle allocates nothing.
type mpscNode[T any] struct {
	next atomic.Pointer[mpscNode[T]]
	val  T
}

// MPSC is an unbounded lock-free multi-producer/single-consumer queue
// (Vyukov intrusive design). Any number of goroutines may Push; exactly
// one goroutine may Pop. Create instances with NewMPSC.
type MPSC[T any] struct {
	head atomic.Pointer[mpscNode[T]] // producers swap here
	_    cacheLinePad
	tail *mpscNode[T] // consumer-owned
	size atomic.Int64
	// nodes recycles retired nodes between the consumer (which frees
	// them as the tail advances) and producers (which reuse them in
	// Push). Recycling a node is safe the moment the tail moves past
	// it: the only other writer of a node is the single producer that
	// swapped it out of head, and that write (next) must already be
	// visible for the tail to advance at all.
	nodes sync.Pool
}

// NewMPSC returns an empty queue.
func NewMPSC[T any]() *MPSC[T] {
	q := &MPSC[T]{}
	stub := &mpscNode[T]{}
	q.head.Store(stub)
	q.tail = stub
	return q
}

func (q *MPSC[T]) newNode(v T) *mpscNode[T] {
	if n, ok := q.nodes.Get().(*mpscNode[T]); ok {
		n.next.Store(nil)
		n.val = v
		return n
	}
	return &mpscNode[T]{val: v}
}

// retire recycles a node the tail has advanced past. Its val was already
// zeroed when the element was popped.
func (q *MPSC[T]) retire(n *mpscNode[T]) { q.nodes.Put(n) }

// Push appends v. Safe for concurrent producers; never blocks.
func (q *MPSC[T]) Push(v T) {
	n := q.newNode(v)
	prev := q.head.Swap(n)
	// Between the Swap and this Store the queue is momentarily
	// disconnected; Pop observes that as "empty" and retries later,
	// which preserves linearizability of the push.
	prev.next.Store(n)
	q.size.Add(1)
}

// PushBatch appends all of vs in order as one operation: the chunk's
// nodes come from a single block allocation (amortizing the per-message
// node cost), are linked privately, and become visible to the consumer
// with one publish — so a batch costs one allocation and two atomic
// stores regardless of length. Safe for concurrent producers; elements
// of concurrent batches do not interleave. vs is copied; the caller may
// reuse it immediately.
func (q *MPSC[T]) PushBatch(vs []T) {
	switch len(vs) {
	case 0:
		return
	case 1:
		q.Push(vs[0])
		return
	}
	block := make([]mpscNode[T], len(vs))
	for i := range vs {
		block[i].val = vs[i]
		if i > 0 {
			block[i-1].next.Store(&block[i])
		}
	}
	first, last := &block[0], &block[len(vs)-1]
	prev := q.head.Swap(last)
	prev.next.Store(first)
	q.size.Add(int64(len(vs)))
}

// Pop removes the oldest element. Consumer-only. Returns false when the
// queue is (momentarily) empty.
func (q *MPSC[T]) Pop() (T, bool) {
	var zero T
	next := q.tail.next.Load()
	if next == nil {
		return zero, false
	}
	old := q.tail
	q.tail = next
	v := next.val
	next.val = zero
	q.retire(old)
	q.size.Add(-1)
	return v, true
}

// PopMany removes up to len(buf) oldest elements into buf and returns
// how many it moved. Consumer-only; one traversal, nodes recycled as it
// goes. Returns 0 when the queue is (momentarily) empty.
func (q *MPSC[T]) PopMany(buf []T) int {
	var zero T
	n := 0
	for n < len(buf) {
		next := q.tail.next.Load()
		if next == nil {
			break
		}
		old := q.tail
		q.tail = next
		buf[n] = next.val
		next.val = zero
		q.retire(old)
		n++
	}
	if n > 0 {
		q.size.Add(-int64(n))
	}
	return n
}

// Len returns the approximate number of queued elements.
func (q *MPSC[T]) Len() int { return int(q.size.Load()) }
