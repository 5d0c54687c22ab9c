package core

import (
	"fmt"

	"anydb/internal/sim"
)

// Context is the runtime interface a behavior sees while handling an
// event or data message. The goroutine runtime implements Charge as a
// no-op (real time passes by itself; Occupy is how a handler holds its
// AC there); the simulation runtime accumulates virtual core time from
// the cost model.
type Context interface {
	// Self returns the AC executing the handler.
	Self() ACID
	// Now returns the current time in virtual nanoseconds (wall-clock
	// nanoseconds since engine start on the goroutine runtime).
	Now() sim.Time
	// Charge accounts d nanoseconds of core work for the current
	// handler.
	Charge(d sim.Time)
	// Costs exposes the cost model (used to price storage operations).
	Costs() *sim.CostModel
	// Send appends ev to the event stream toward dst.
	Send(dst ACID, ev *Event)
	// SendData appends msg to a data stream toward dst.
	SendData(dst ACID, msg *DataMsg)
	// Topology exposes cluster layout for routing decisions.
	Topology() *Topology
	// Offloaded reports whether data sent toward dst rides a DPI flow
	// (shuffle partitioning runs on the NIC instead of this core, §4).
	Offloaded(dst ACID) bool
}

// Occupy keeps the AC executing the handler busy for d: a modelled
// window that no real work fills, such as a query optimizer's compile
// time. The goroutine runtime, whose Charge only accounts, holds the AC
// for d of real time; every other Context (the simulation runtime, a
// test stub) is charged d.
func Occupy(ctx Context, d sim.Time) {
	if o, ok := ctx.(interface{ occupy(sim.Time) }); ok {
		o.occupy(d)
		return
	}
	ctx.Charge(d)
}

// Behavior is one capability an AC can perform. Every AC registers the
// same behavior set — that is what makes components generic: the event
// kind alone decides whether an AC currently acts as a query optimizer,
// an executor, a sequencer or storage.
type Behavior interface {
	// OnEvent handles an event whose data prerequisites are satisfied.
	OnEvent(ctx Context, ac *AC, ev *Event)
}

// DataSink is implemented by behaviors that consume data streams
// incrementally (OLAP operators).
type DataSink interface {
	// OnData handles one batch for a stream the behavior subscribed to
	// via AC.Subscribe. The *DataMsg envelope is owned by the runtime
	// and recycled when OnData returns — sinks must not retain it.
	// msg.Batch comes with one hold for the sink, which it MAY retain
	// and releases with storage.FreeBatch at the row data's own death
	// point. A batch may be shared; read it, never write it: a shared
	// scan's memo, or another query's join or sink, may hold the same
	// batch.
	OnData(ctx Context, ac *AC, msg *DataMsg)
}

// BehaviorFunc adapts a function to Behavior.
type BehaviorFunc func(ctx Context, ac *AC, ev *Event)

// OnEvent implements Behavior.
func (f BehaviorFunc) OnEvent(ctx Context, ac *AC, ev *Event) { f(ctx, ac, ev) }

// StreamState buffers one data stream at its consuming AC: batches that
// arrived before the consuming event or operator was ready, plus the
// closed flag. This is the staging area that makes data beaming work —
// beamed data waits here, already local, until its event shows up.
type StreamState struct {
	Pending []*DataMsg
	Closed  bool
	Bytes   int64
	// eos counts Last markers seen; expect is the producer fan-in (set
	// by the markers themselves).
	eos    int
	expect int
	// sink, once subscribed, receives batches directly.
	sink DataSink
}

// AC is the AnyComponent: a generic, stateless-by-design component driven
// entirely by its event and data inboxes. All the state it touches is
// either delivered by data streams or owned via explicit partition
// ownership (the physically-aggregated execution mode of §3.1).
type AC struct {
	ID ACID

	behaviors map[EventKind]Behavior
	streams   map[StreamID]*StreamState
	parked    map[StreamID][]*Event

	// OnBatchEnd, when set, runs after the AC's goroutine handled one
	// drained mailbox batch (goroutine runtime only). This is the group
	// boundary durability hangs off: a dispatcher parks admitted
	// transactions during the batch and the hook fsyncs once and
	// releases them all. Sends issued by the hook are flushed by the
	// runtime exactly like a handler's.
	OnBatchEnd func(ctx Context)

	// Stats.
	EventsHandled int64
	DataHandled   int64
	ParkedNow     int
}

// NewAC returns an AC with no behaviors registered.
func NewAC(id ACID) *AC {
	return &AC{
		ID:        id,
		behaviors: make(map[EventKind]Behavior),
		streams:   make(map[StreamID]*StreamState),
		parked:    make(map[StreamID][]*Event),
	}
}

// Register installs a behavior for an event kind. Registering the same
// kind twice is a wiring bug and panics.
func (ac *AC) Register(kind EventKind, b Behavior) {
	if _, dup := ac.behaviors[kind]; dup {
		panic(fmt.Sprintf("core: duplicate behavior for %v on AC %d", kind, ac.ID))
	}
	ac.behaviors[kind] = b
}

// stream returns (creating) the state for a stream id.
func (ac *AC) stream(id StreamID) *StreamState {
	s, ok := ac.streams[id]
	if !ok {
		s = &StreamState{}
		ac.streams[id] = s
	}
	return s
}

// ready reports whether the event's data prerequisites are met.
func (ac *AC) ready(ev *Event) bool {
	for _, sid := range ev.Need {
		s := ac.stream(sid)
		if ev.NeedClosed {
			if !s.Closed {
				return false
			}
		} else if len(s.Pending) == 0 && !s.Closed {
			return false
		}
	}
	return true
}

// HandleEvent dispatches ev, parking it when its data has not arrived
// yet (the paper's non-blocking rule: the component moves on to other
// events; the runtime keeps delivering).
func (ac *AC) HandleEvent(ctx Context, ev *Event) {
	if !ac.ready(ev) {
		// Park under the first unmet stream; re-checked on every
		// arrival for that stream.
		for _, sid := range ev.Need {
			s := ac.stream(sid)
			met := s.Closed || (!ev.NeedClosed && len(s.Pending) > 0)
			if !met {
				ac.parked[sid] = append(ac.parked[sid], ev)
				ac.ParkedNow++
				return
			}
		}
	}
	ac.dispatch(ctx, ev)
}

func (ac *AC) dispatch(ctx Context, ev *Event) {
	b, ok := ac.behaviors[ev.Kind]
	if !ok {
		panic(fmt.Sprintf("core: AC %d has no behavior for %v", ac.ID, ev.Kind))
	}
	ac.EventsHandled++
	b.OnEvent(ctx, ac, ev)
}

// HandleData stages or forwards one data message, then unparks any
// events whose prerequisites it satisfied. The AC is each message's
// single consumer: envelopes that were delivered to a sink (or carried
// only an EOS marker) are recycled here; staged envelopes are recycled
// when Subscribe replays them.
func (ac *AC) HandleData(ctx Context, msg *DataMsg) {
	ac.DataHandled++
	sid, query, last, producers := msg.Stream, msg.Query, msg.Last, msg.Producers
	s := ac.stream(sid)
	if msg.Batch != nil {
		// Batches forward (or stage) without the Last flag: with
		// multiple producers each sends its own marker, and the sink
		// must see exactly one synthetic EOS — emitted below once the
		// full fan-in closed.
		batchOnly := msg
		if last {
			// The split deliberately does not carry Prehashed: the
			// final batch of a stream charges at the full rate, which
			// is what the cost calibration (and the committed figures)
			// established.
			batchOnly = GetDataMsg()
			batchOnly.Stream, batchOnly.Query, batchOnly.Batch = sid, query, msg.Batch
			FreeDataMsg(msg)
		}
		if s.sink != nil {
			s.sink.OnData(ctx, ac, batchOnly)
			FreeDataMsg(batchOnly)
		} else {
			s.Pending = append(s.Pending, batchOnly)
			s.Bytes += batchOnly.WireSize()
		}
	} else if last {
		// Pure EOS marker: dead once counted below.
		FreeDataMsg(msg)
	}
	if last {
		s.eos++
		if producers <= 0 {
			producers = 1
		}
		if producers > s.expect {
			s.expect = producers
		}
		if s.eos >= s.expect && !s.Closed {
			s.Closed = true
			if s.sink != nil {
				eos := GetDataMsg()
				eos.Stream, eos.Query, eos.Last = sid, query, true
				s.sink.OnData(ctx, ac, eos)
				FreeDataMsg(eos)
			}
		}
	}
	ac.unpark(ctx, sid)
}

// unpark re-dispatches events waiting on stream sid whose prerequisites
// are now met.
func (ac *AC) unpark(ctx Context, sid StreamID) {
	waiting := ac.parked[sid]
	if len(waiting) == 0 {
		return
	}
	var still []*Event
	for _, ev := range waiting {
		if ac.ready(ev) {
			ac.ParkedNow--
			// A parked event re-enters the full path: it may park
			// again on a different stream.
			ac.HandleEvent(ctx, ev)
		} else {
			still = append(still, ev)
		}
	}
	if len(still) == 0 {
		delete(ac.parked, sid)
	} else {
		ac.parked[sid] = still
	}
}

// Subscribe hands all current and future batches of a stream to sink.
// Buffered (beamed) batches are replayed immediately in arrival order;
// their envelopes die (and are recycled) as they replay.
func (ac *AC) Subscribe(ctx Context, sid StreamID, sink DataSink) {
	s := ac.stream(sid)
	if s.sink != nil {
		panic(fmt.Sprintf("core: stream %d already subscribed on AC %d", sid, ac.ID))
	}
	s.sink = sink
	for i, m := range s.Pending {
		s.Pending[i] = nil
		sink.OnData(ctx, ac, m)
		FreeDataMsg(m)
	}
	s.Pending = nil
	if s.Closed {
		eos := GetDataMsg()
		eos.Stream, eos.Last = sid, true
		sink.OnData(ctx, ac, eos)
		FreeDataMsg(eos)
	}
}

// DropStream releases stream state (query teardown).
func (ac *AC) DropStream(sid StreamID) {
	delete(ac.streams, sid)
	delete(ac.parked, sid)
}
