// Package sim is a deterministic discrete-event simulation kernel.
//
// It substitutes for the multi-core servers and InfiniBand network of the
// paper's testbed (calibration in cost.go): AnyComponents and transaction
// executors run as Actors pinned to virtual cores, operations charge
// virtual nanoseconds from a calibrated cost model while performing the
// real work on real data structures, and Links model message latency and
// bandwidth. All ties are broken by insertion sequence, so a simulation
// with a fixed seed is bit-for-bit reproducible.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String renders a Time using the most natural unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

type scheduled struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []scheduled

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)      { *h = append(*h, x.(scheduled)) }
func (h *eventHeap) Pop() any        { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
func (h eventHeap) peek() *scheduled { return &h[0] }
func (h eventHeap) emptyHeap() bool  { return len(h) == 0 }
func (h eventHeap) String() string   { return fmt.Sprintf("eventHeap(len=%d)", len(h)) }

// Scheduler is the simulation event loop. It is strictly single-threaded:
// all scheduled functions run on the goroutine that calls Run/RunUntil.
type Scheduler struct {
	heap eventHeap
	now  Time
	seq  uint64
	// Executed counts dispatched events, a cheap progress/diagnostic
	// measure for tests.
	Executed int64
}

// NewScheduler returns an empty scheduler at virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past is a
// programming error and panics: it would silently reorder causality.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.heap, scheduled{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (s *Scheduler) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Step dispatches the next event; it reports false when the queue is
// empty.
func (s *Scheduler) Step() bool {
	if s.heap.emptyHeap() {
		return false
	}
	ev := heap.Pop(&s.heap).(scheduled)
	s.now = ev.at
	s.Executed++
	ev.fn()
	return true
}

// Run dispatches events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil dispatches events with timestamps <= deadline, then advances
// the clock to the deadline. Events scheduled beyond the deadline remain
// queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for !s.heap.emptyHeap() && s.heap.peek().at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.heap) }
