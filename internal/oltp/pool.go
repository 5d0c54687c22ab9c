package oltp

import "sync"

// Pools for the OLTP hot-path payloads. Every transaction allocates a
// Segment per routed group, an Ack per segment, and a DoneInfo — with
// the pooled core.Event envelopes these are the entire steady-state
// allocation profile of the message plane. Ownership is single-consumer
// throughout: a Segment dies at the executor that ran it, an Ack at the
// coordinator that counted it, a DoneInfo at the client that resolved
// the waiter. Frees are optional (missed ones fall back to the GC), so
// the simulation runtime and tests that drop messages stay correct.
var (
	segPool  = sync.Pool{New: func() any { return new(Segment) }}
	ackPool  = sync.Pool{New: func() any { return new(Ack) }}
	donePool = sync.Pool{New: func() any { return new(DoneInfo) }}
	progPool = sync.Pool{New: func() any { return new(paymentProgram) }}
)

// GetSegment returns a pooled Segment: the dispatcher builds one per
// routed group, and the wire decode path materializes segments off the
// wire (the transport peer plays the dispatcher's role for remotely
// executed segments).
func GetSegment() *Segment { return segPool.Get().(*Segment) }

// FreeSegment recycles a fully executed segment (or the encode side's
// local copy once the frame is written), keeping the Ops capacity. The
// op references are cleared so the program block of the owning
// transaction is not pinned by the pool; if this was the last segment
// holding the transaction's pooled payment-program block, the block is
// recycled too (its ops all ran — the refcount is the number of routed
// segments, decremented here at each segment's death).
func FreeSegment(s *Segment) {
	clear(s.Ops)
	s.Ops = s.Ops[:0]
	if prog := s.Prog; prog != nil {
		s.Prog = nil
		if prog.refs.Add(-1) == 0 {
			progPool.Put(prog)
		}
	}
	s.Coord = 0
	s.Total = 0
	s.Client = nil
	segPool.Put(s)
}

// GetAck returns a pooled Ack (executors, and wire decode paths).
func GetAck() *Ack { return ackPool.Get().(*Ack) }

// FreeAck recycles an ack at the coordinator that counted it, or at the
// wire codec that encoded it.
func FreeAck(a *Ack) {
	a.Total = 0
	a.Home = 0
	a.Client = nil
	a.Err = nil
	ackPool.Put(a)
}

// GetDoneInfo returns a zeroed DoneInfo from the pool. The dispatch side
// allocates it; whoever consumes the EvTxnDone (the anydb client
// callback) frees it with FreeDoneInfo once the outcome is recorded.
func GetDoneInfo() *DoneInfo { return donePool.Get().(*DoneInfo) }

// FreeDoneInfo recycles d. Callers must not touch d afterwards.
func FreeDoneInfo(d *DoneInfo) {
	d.Committed = false
	d.Home = 0
	d.Client = nil
	d.Err = nil
	donePool.Put(d)
}
