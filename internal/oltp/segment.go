package oltp

import (
	"fmt"

	"anydb/internal/core"
	"anydb/internal/metrics"
	"anydb/internal/storage"
)

// Segment is the payload of core.EvSegment: a physically-aggregated
// sub-sequence of one transaction's operations, executed atomically by
// one AC (the unit of the duality of disaggregation, §3.1).
type Segment struct {
	Ops   []Op
	Coord core.ACID // where the ack goes
	Total int       // segments in the whole transaction
	// Client is the submitter's completion token (core.Event.Client),
	// threaded through every segment so the commit path can return it
	// on the DoneInfo without any shared lookup table.
	Client any
	// Prog is the pooled payment-program block the segment's ops live
	// in (nil for new-order segments). The last freed segment of the
	// transaction recycles it — see freeSegment.
	Prog *paymentProgram
}

// wireSize approximates the event payload size.
func (s *Segment) wireSize() int64 { return int64(len(s.Ops)) * 48 }

// Ack is the payload of core.EvAck.
type Ack struct {
	Total  int
	Home   int // home warehouse (admission bookkeeping)
	Client any // completion token, carried from the segment
	// Err marks a synthetic failure ack: the head injects one for each
	// segment lost to a dead member, so the coordinator's pending count
	// still converges and the transaction completes exactly once — as a
	// typed failure. Real executor acks never set it, and it never
	// crosses the wire.
	Err error
}

// DoneInfo is the payload of core.EvTxnDone toward the client.
type DoneInfo struct {
	Committed bool
	Home      int
	// Client is the token the submitter attached at injection (nil for
	// harness-driven transactions, which match completions themselves).
	Client any
	// Err is the failure the submitter's Wait surfaces when Committed
	// is false for an infrastructure reason (dead member, failed log
	// flush) rather than a logical abort. Local-only: dispatchers that
	// produce errors live on the head, so it never crosses the wire.
	Err error
}

// Executor is the worker-side behavior: it runs segments against the
// partitions this AC owns (or, under fine-grained routing, the record
// classes routed to it). Owner ACs process their inbox serially, so
// conflicting operations arriving in a consistent order — guaranteed by
// a single dispatcher or by a sequencer — execute consistently without
// any locking (§3.3).
type Executor struct {
	DB *storage.Database
	// Executed counts segments for observability.
	Executed int64

	// undo and exec are reused across segments: an executor runs on
	// exactly one AC, segments execute to completion, and Commit keeps
	// the log's capacity — so the execution environment costs nothing
	// per segment in steady state. execCtx caches the context the exec
	// was built against (stable per goroutine on the real runtime).
	undo    storage.UndoLog
	exec    Exec
	execCtx core.Context
}

// OnEvent implements core.Behavior for EvSegment.
func (x *Executor) OnEvent(ctx core.Context, _ *core.AC, ev *core.Event) {
	seg, ok := ev.Payload.(*Segment)
	if !ok {
		panic("oltp: EvSegment payload must be *Segment")
	}
	if x.execCtx != ctx {
		x.exec = Exec{DB: x.DB, Costs: ctx.Costs(), Charge: ctx.Charge, Undo: &x.undo}
		x.execCtx = ctx
	}
	for _, op := range seg.Ops {
		if err := op.Run(&x.exec); err != nil {
			// AnyDB pre-validates transactions at dispatch, so a
			// logical abort inside a routed segment is a bug.
			panic(fmt.Sprintf("oltp: unexpected abort in routed segment: %v", err))
		}
	}
	x.undo.Commit()
	x.Executed++
	ack := GetAck()
	ack.Total, ack.Client = seg.Total, seg.Client
	if len(seg.Ops) > 0 {
		ack.Home = seg.Ops[0].Warehouse()
	}
	coord := seg.Coord
	// The segment dies here; its envelope carries the ack back (same
	// Txn; the coordinator frees it).
	FreeSegment(seg)
	ev.Kind, ev.Payload, ev.Seq, ev.Size = core.EvAck, ack, 0, 0
	ctx.Send(coord, ev)
}

// Coordinator is the commit-coordination behavior: it counts segment
// acks and declares the transaction committed when all arrived. Under
// streaming CC it runs on its own AC so ack processing stays off the
// executors' critical path; in the other policies the dispatcher embeds
// the same logic.
type Coordinator struct {
	pending map[core.TxnID]int
	failed  map[core.TxnID]error
	// win accumulates the telemetry window (commit-side signals).
	win sigWindow
	// Committed counts completed transactions; atomic because harness
	// code may read it while the coordinator's AC is running.
	Committed metrics.Counter
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		pending: make(map[core.TxnID]int),
		failed:  make(map[core.TxnID]error),
	}
}

// SetTelemetry enables commit-rate reporting toward the adaptation
// controller. Install before the engine starts delivering events.
func (c *Coordinator) SetTelemetry(t Telemetry) { c.win.SetTelemetry(t) }

// takeAck consumes one pooled ack event — the shared half of the two
// commit-coordination paths (dedicated Coordinator and embedded
// Dispatcher.onAck). It copies the fields out, recycles the ack and its
// envelope (the pooled-ownership rule lives here, in one place), counts
// the ack against pending, and reports whether the transaction is now
// fully acked. A failure ack (synthetic, from the dead-member path)
// poisons the transaction: when the count converges, err carries the
// first failure and the caller completes the transaction as failed.
func takeAck(ctx core.Context, pending map[core.TxnID]int, failed map[core.TxnID]error, ev *core.Event) (id core.TxnID, home int, client any, err error, done bool) {
	ack := ev.Payload.(*Ack)
	ctx.Charge(ctx.Costs().AckProcess)
	var total int
	id, home, total, client = ev.Txn, ack.Home, ack.Total, ack.Client
	if ack.Err != nil {
		if _, dup := failed[id]; !dup {
			failed[id] = ack.Err
		}
	}
	FreeAck(ack)
	core.FreeEvent(ev)
	got := pending[id] + 1
	if got < total {
		pending[id] = got
		return id, home, client, nil, false
	}
	delete(pending, id)
	if e, ok := failed[id]; ok {
		delete(failed, id)
		err = e
	}
	return id, home, client, err, true
}

// OnEvent implements core.Behavior for EvAck.
func (c *Coordinator) OnEvent(ctx core.Context, _ *core.AC, ev *core.Event) {
	id, ackHome, client, err, done := takeAck(ctx, c.pending, c.failed, ev)
	if !done {
		return
	}
	ctx.Charge(ctx.Costs().TxnCommit)
	if err != nil {
		sendTxnDone(ctx, id, false, ackHome, client, err)
		return
	}
	c.Committed.Inc()
	// A dedicated coordinator only runs under streaming CC; its windows
	// advance on commits (it never sees admissions).
	c.win.observeCommit(true)
	c.win.maybeFlush(ctx, StreamingCC)
	sendTxnDone(ctx, id, true, ackHome, client, nil)
}
