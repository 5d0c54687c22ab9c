package oltp

import (
	"fmt"
	"sync/atomic"

	"anydb/internal/core"
	"anydb/internal/metrics"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// Policy selects how a dispatcher lays a transaction's event stream over
// the ACs — the paper's routing strategies:
//
//   - SharedNothing (Fig. 4b): all operations of a transaction aggregate
//     into per-warehouse segments routed to the partition owners. Full
//     locality, classic inter-transaction parallelism.
//   - NaiveIntra (Fig. 4c): every operation is its own event, farmed out
//     to a different AC by record class. Conservative admission — one
//     transaction in flight per home warehouse — keeps conflicting
//     schedules serial, which is why per-event overhead dominates.
//   - PreciseIntra (Fig. 4d): two balanced sub-sequences — the brief
//     updates, and the long customer scan — pipelined across two ACs.
//   - StreamingCC (§3.3): per-record-class segments stamped by a
//     sequencer; executors apply conflicting operations in stamp order,
//     transactions pipeline freely, a dedicated coordinator commits.
type Policy uint8

const (
	SharedNothing Policy = iota
	NaiveIntra
	PreciseIntra
	StreamingCC
)

var policyNames = [...]string{"shared-nothing", "naive-intra", "precise-intra", "streaming-cc"}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Routes carries the routing tables a dispatcher needs. Owner is always
// required; ClassRoute powers the intra-transaction policies; Seq and
// Coord power streaming CC.
type Routes struct {
	// Owner maps a partition (warehouse) to the AC owning it.
	Owner func(partition int) core.ACID
	// ClassRoute maps (warehouse, record class) to the executing AC for
	// fine-grained policies. nil falls back to Owner.
	ClassRoute func(w int, c Class) core.ACID
	// Seq is the sequencer AC (streaming CC only).
	Seq core.ACID
	// Coord is the commit coordinator AC; NoAC embeds coordination in
	// the dispatcher.
	Coord core.ACID
}

// CommandLog is the durable command log a dispatcher writes ahead of
// dispatch (wal.Logger implements it; the interface lives here to avoid
// an import cycle — wal imports oltp for replay). Append buffers one
// record and returns its LSN; Kick asks the log's writer to make
// everything appended so far durable and never blocks — completion comes
// back to the dispatcher as a core.EvLogDurable event.
type CommandLog interface {
	Append(txn *tpcc.Txn) (uint64, error)
	Kick()
}

// Dispatcher is the behavior of an AC acting as the transaction entry
// point (the "QO" role for OLTP in Figure 4): it logically disaggregates
// the transaction into operations, groups them into segments per the
// policy, and routes the event stream. It also embeds commit
// coordination unless Routes.Coord redirects acks elsewhere.
type Dispatcher struct {
	DB *storage.Database
	// cfg holds the active policy and routing atomically, so the engine
	// can reroute at runtime (the paper's zero-downtime architecture
	// shift) while AC goroutines dispatch concurrently.
	cfg atomic.Pointer[DispatchConfig]

	// Log, when set, makes admission write-ahead: a transaction's
	// command record must be durable before any of its segments
	// dispatch, so effects never precede the log and recovery replays
	// exactly the prefix whose effects may exist. Admission appends the
	// record and parks the transaction in logq under its LSN; the log's
	// writer syncs off this goroutine and EvLogDurable releases every
	// parked transaction the durable LSN covers. The AC never waits for
	// the device. Strict kicks the writer per transaction; otherwise the
	// batch-end FlushBatch kicks once per drain cycle.
	Log    CommandLog
	Strict bool
	logq   []queuedTxn // parked, in LSN order
	// parked tells the log writer (another goroutine) that logq may be
	// non-empty, so it only notifies dispatchers with work to release.
	// Set before the Append that parks, cleared when logq runs empty.
	parked atomic.Bool
	// logErr latches the first log failure: the durability plane is
	// fail-stop, so every later admission fails fast with it.
	logErr error

	pending map[core.TxnID]int
	// failed poisons transactions that received a synthetic failure ack
	// (a segment lost to a dead member).
	failed map[core.TxnID]error
	// Naive-mode admission: one transaction in flight per home
	// warehouse; the rest queue here.
	busy   map[int]bool
	queued map[int][]queuedTxn
	homeOf map[core.TxnID]int

	// win accumulates the telemetry window (adaptation signals); it is
	// only touched from this dispatcher's event handlers.
	win sigWindow

	// ops and groups are dispatch scratch, reused across transactions
	// (a dispatcher runs on exactly one AC). Segments copy out of them,
	// so the steady-state dispatch path allocates only the program ops.
	ops    []Op
	groups []segGroup

	// Committed and Aborted are written on the dispatcher's AC
	// goroutine and may be read concurrently by harness code, so they
	// are atomic counters.
	Committed metrics.Counter
	Aborted   metrics.Counter

	// items is the replicated item catalog's size, read once from the
	// database: new-order item ids must lie in 0..items-1 (Valid). Last,
	// so the fields above keep their offsets.
	items int
}

type queuedTxn struct {
	id     core.TxnID
	txn    *tpcc.Txn
	client any
	lsn    uint64 // logq only: the command record's LSN
}

// segGroup accumulates the ops routed to one destination AC.
type segGroup struct {
	dst core.ACID
	ops []Op
}

// DispatchConfig pairs a policy with its routing tables.
type DispatchConfig struct {
	Policy Policy
	Routes Routes
}

// NewDispatcher returns a dispatcher for the given policy.
func NewDispatcher(policy Policy, db *storage.Database, routes Routes) *Dispatcher {
	d := &Dispatcher{
		DB:      db,
		items:   db.Partition(0).TableByID(tpcc.TItemID).Rows(),
		pending: make(map[core.TxnID]int),
		failed:  make(map[core.TxnID]error),
		busy:    make(map[int]bool),
		queued:  make(map[int][]queuedTxn),
		homeOf:  make(map[core.TxnID]int),
	}
	d.cfg.Store(&DispatchConfig{Policy: policy, Routes: routes})
	return d
}

// SetConfig atomically swaps policy and routes for subsequent
// transactions; in-flight work completes under the old routing.
func (d *Dispatcher) SetConfig(policy Policy, routes Routes) {
	d.cfg.Store(&DispatchConfig{Policy: policy, Routes: routes})
}

// Config returns the active configuration.
func (d *Dispatcher) Config() DispatchConfig { return *d.cfg.Load() }

// SetTelemetry enables signal reporting toward the adaptation
// controller. Install before the engine starts delivering events.
func (d *Dispatcher) SetTelemetry(t Telemetry) { d.win.SetTelemetry(t) }

// OnEvent implements core.Behavior for EvTxn, EvAck and EvLogDurable.
func (d *Dispatcher) OnEvent(ctx core.Context, ac *core.AC, ev *core.Event) {
	cfg := d.cfg.Load()
	switch ev.Kind {
	case core.EvTxn:
		txn, ok := ev.Payload.(*tpcc.Txn)
		if !ok {
			panic("oltp: EvTxn payload must be *tpcc.Txn")
		}
		id, client := ev.Txn, ev.Client
		// The envelope is dead once admission has the txn (queued
		// admissions keep the payload, never the event).
		core.FreeEvent(ev)
		d.admit(ctx, cfg, id, txn, client)
	case core.EvAck:
		d.onAck(ctx, cfg, ev)
	case core.EvLogDurable:
		durable := ev.Seq
		err, _ := ev.Payload.(error)
		core.FreeEvent(ev)
		d.onLogDurable(ctx, cfg, durable, err)
	default:
		panic(fmt.Sprintf("oltp: dispatcher got %v", ev.Kind))
	}
}

func (d *Dispatcher) admit(ctx core.Context, cfg *DispatchConfig, id core.TxnID, txn *tpcc.Txn, client any) {
	ctx.Charge(ctx.Costs().TxnBegin)
	// Reconnaissance (Calvin-style): validate new-order items against
	// the replicated catalog before dispatching anything, so routed
	// segments never need distributed undo — and, under durability,
	// before logging anything, so replay never re-executes an abort.
	if txn.Kind == tpcc.TxnNewOrder {
		ctx.Charge(ctx.Costs().IndexLookup * sim.Time(len(txn.NewOrder.Lines)))
		if !Valid(txn, d.items) {
			d.failTxn(ctx, cfg, id, txn, client, nil)
			return
		}
	}
	if d.Log == nil {
		d.admitChecked(ctx, cfg, id, txn, client)
		return
	}
	// Write-ahead: the command record precedes any dispatch.
	if d.logErr != nil {
		d.failTxn(ctx, cfg, id, txn, client, d.logErr)
		return
	}
	// Raise parked before the Append: a writer that swaps this record
	// into its group then also sees the flag when it notifies.
	if len(d.logq) == 0 {
		d.parked.Store(true)
	}
	lsn, err := d.Log.Append(txn)
	if err != nil {
		d.failLog(ctx, cfg, err)
		d.failTxn(ctx, cfg, id, txn, client, err)
		return
	}
	// Park until the log writer reports the record durable.
	d.logq = append(d.logq, queuedTxn{id: id, txn: txn, client: client, lsn: lsn})
	if d.Strict {
		d.Log.Kick()
	}
}

// admitChecked is admission past reconnaissance and durability:
// telemetry, naive-mode serialization, dispatch.
func (d *Dispatcher) admitChecked(ctx core.Context, cfg *DispatchConfig, id core.TxnID, txn *tpcc.Txn, client any) {
	if d.win.tel.Enabled {
		d.win.observeAdmit(txn.HomeWarehouse(), crossPartition(txn))
		d.win.maybeFlush(ctx, cfg.Policy)
	}
	if cfg.Policy == NaiveIntra {
		home := txn.HomeWarehouse()
		if d.busy[home] {
			// The op program is compiled lazily at dispatch, so a
			// queued transaction holds one pointer, not a slice.
			d.queued[home] = append(d.queued[home], queuedTxn{id: id, txn: txn, client: client})
			return
		}
		d.busy[home] = true
		d.homeOf[id] = home
	}
	d.dispatch(ctx, cfg, id, txn, client)
}

// failTxn completes a transaction as aborted before it dispatched:
// reconnaissance rejection (err nil) or a durability failure (err set,
// surfaced on the DoneInfo so the submitter's Wait sees a typed error).
func (d *Dispatcher) failTxn(ctx core.Context, cfg *DispatchConfig, id core.TxnID, txn *tpcc.Txn, client any, err error) {
	ctx.Charge(ctx.Costs().TxnCommit) // abort bookkeeping
	d.Aborted.Inc()
	d.win.observeAbort()
	d.win.maybeFlush(ctx, cfg.Policy)
	home := txn.HomeWarehouse()
	tpcc.FreeTxn(txn)
	sendTxnDone(ctx, id, false, home, client, err)
}

// FlushBatch is the AC's batch-end hook (core.AC.OnBatchEnd) under
// group-commit durability: it kicks the log writer once for everything
// admitted during the drain batch and returns — the fsync happens on the
// writer's goroutine, and whatever other dispatchers (and this one's
// next batches) append meanwhile rides the following group.
func (d *Dispatcher) FlushBatch(core.Context) {
	if len(d.logq) != 0 {
		d.Log.Kick()
	}
}

// HasParked reports whether transactions may be waiting for the log.
// Safe from any goroutine: the log writer uses it to pick the
// dispatchers it sends EvLogDurable to.
func (d *Dispatcher) HasParked() bool { return d.parked.Load() }

// onLogDurable handles the log writer's report: every parked
// transaction whose record the durable LSN covers dispatches, in LSN
// (= admission) order. A device error instead fails everything parked —
// the failed group and whatever queued behind it — so no segment of a
// transaction whose record may not be durable ever executes.
func (d *Dispatcher) onLogDurable(ctx core.Context, cfg *DispatchConfig, durable uint64, err error) {
	if err != nil {
		d.failLog(ctx, cfg, err)
		return
	}
	q := d.logq
	n := 0
	for n < len(q) && q[n].lsn <= durable {
		d.admitChecked(ctx, cfg, q[n].id, q[n].txn, q[n].client)
		n++
	}
	rest := copy(q, q[n:])
	clear(q[rest:])
	d.logq = q[:rest]
	if rest == 0 {
		d.parked.Store(false)
	}
}

// failLog latches err (fail-stop: later admissions fail fast with it)
// and fails every parked transaction with it.
func (d *Dispatcher) failLog(ctx core.Context, cfg *DispatchConfig, err error) {
	if d.logErr == nil {
		d.logErr = err
	}
	q := d.logq
	for i := range q {
		d.failTxn(ctx, cfg, q[i].id, q[i].txn, q[i].client, d.logErr)
	}
	clear(q)
	d.logq = q[:0]
	d.parked.Store(false)
}

// dispatch groups the transaction's operations by destination AC and
// emits the segment events. Grouping runs over the dispatcher's scratch
// buffers with a linear destination scan (a transaction routes to a
// handful of ACs at most); the pooled segments copy their ops out, so
// the scratch is free for the next transaction immediately.
func (d *Dispatcher) dispatch(ctx core.Context, cfg *DispatchConfig, id core.TxnID, txn *tpcc.Txn, client any) {
	var prog *paymentProgram
	d.ops, prog = programInto(d.ops[:0], txn)
	// The transaction parameters are fully compiled into the op program
	// now; the txn itself dies here and is recycled for the next
	// submission (both runtimes inject pooled txns).
	tpcc.FreeTxn(txn)
	groups := d.groups
	ng := 0
	for _, op := range d.ops {
		dst := route(cfg, op)
		gi := -1
		for i := 0; i < ng; i++ {
			if groups[i].dst == dst {
				gi = i
				break
			}
		}
		if gi < 0 {
			if ng < len(groups) {
				groups[ng].dst = dst
				groups[ng].ops = groups[ng].ops[:0]
			} else {
				groups = append(groups, segGroup{dst: dst})
			}
			gi = ng
			ng++
		}
		groups[gi].ops = append(groups[gi].ops, op)
	}
	d.groups = groups

	coord := cfg.Routes.Coord
	if coord == core.NoAC {
		coord = ctx.Self()
	}
	total := ng
	// Arm the program block's segment refcount before any segment can
	// possibly execute (sends are outboxed until this handler returns,
	// but arming first keeps the invariant local and obvious).
	if prog != nil {
		prog.refs.Store(int32(ng))
	}
	if cfg.Policy == StreamingCC {
		batch := &core.SeqBatch{Events: make([]core.Outbound, 0, ng)}
		for i := 0; i < ng; i++ {
			batch.Events = append(batch.Events, core.Outbound{
				Dst: groups[i].dst,
				Ev:  d.segmentEvent(id, groups[i].ops, coord, total, client, prog),
			})
		}
		seq := core.GetEvent()
		seq.Kind, seq.Txn, seq.Payload = core.EvSeqStamp, id, batch
		ctx.Send(cfg.Routes.Seq, seq)
		return
	}
	for i := 0; i < ng; i++ {
		ctx.Send(groups[i].dst, d.segmentEvent(id, groups[i].ops, coord, total, client, prog))
	}
}

// segmentEvent builds one pooled EvSegment event owning a copy of ops.
func (d *Dispatcher) segmentEvent(id core.TxnID, ops []Op, coord core.ACID, total int, client any, prog *paymentProgram) *core.Event {
	seg := GetSegment()
	seg.Ops = append(seg.Ops[:0], ops...)
	seg.Coord, seg.Total, seg.Client, seg.Prog = coord, total, client, prog
	ev := core.GetEvent()
	ev.Kind, ev.Txn, ev.Payload, ev.Size = core.EvSegment, id, seg, seg.wireSize()
	return ev
}

// sendTxnDone emits the pooled EvTxnDone completion toward the client;
// the consumer of the event frees the DoneInfo (FreeDoneInfo). Shared
// by the dispatcher-embedded and dedicated-coordinator commit paths.
// client is the submitter's completion token, handed back untouched.
func sendTxnDone(ctx core.Context, id core.TxnID, committed bool, home int, client any, err error) {
	done := GetDoneInfo()
	done.Committed, done.Home, done.Client, done.Err = committed, home, client, err
	ev := core.GetEvent()
	ev.Kind, ev.Txn, ev.Payload = core.EvTxnDone, id, done
	ctx.Send(core.ClientAC, ev)
}

// route picks the destination AC for one op under the current policy.
func route(cfg *DispatchConfig, op Op) core.ACID {
	switch cfg.Policy {
	case SharedNothing:
		return cfg.Routes.Owner(op.Warehouse())
	default:
		if cfg.Routes.ClassRoute != nil {
			return cfg.Routes.ClassRoute(op.Warehouse(), op.Class())
		}
		return cfg.Routes.Owner(op.Warehouse())
	}
}

func (d *Dispatcher) onAck(ctx core.Context, cfg *DispatchConfig, ev *core.Event) {
	id, ackHome, client, err, done := takeAck(ctx, d.pending, d.failed, ev)
	if !done {
		return
	}
	ctx.Charge(ctx.Costs().TxnCommit)
	if err != nil {
		// Some segments were lost to a dead member: the transaction's
		// effects are partial on the surviving copy, and the submitter
		// sees a typed failure instead of a hang.
		d.Aborted.Inc()
		d.win.observeAbort()
		d.win.maybeFlush(ctx, cfg.Policy)
		sendTxnDone(ctx, id, false, ackHome, client, err)
	} else {
		d.Committed.Inc()
		d.win.observeCommit(false)
		sendTxnDone(ctx, id, true, ackHome, client, nil)
	}
	// Naive admission: release the home warehouse and start the next
	// queued transaction.
	if cfg.Policy == NaiveIntra {
		home, ok := d.homeOf[id]
		if !ok {
			return
		}
		delete(d.homeOf, id)
		q := d.queued[home]
		if len(q) == 0 {
			d.busy[home] = false
			return
		}
		next := q[0]
		d.queued[home] = q[1:]
		d.homeOf[next.id] = home
		d.dispatch(ctx, cfg, next.id, next.txn, next.client)
	}
}
