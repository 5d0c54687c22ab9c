// Package dbx1000 is the baseline: a static shared-nothing DBMS in the
// spirit of DBx1000 [9] as the paper configures it — N transaction
// executors (TEs) pinned to cores, storage partitioned by warehouse,
// H-Store-style no-wait partition locking for multi-partition
// transactions, and OLAP queries executed on the same TEs as the OLTP
// workload (the resource coupling AnyDB's Figure 1 HTAP phases exploit).
// It runs on the virtual-time kernel and executes the identical
// oltp.Program operations against the identical storage as AnyDB, so
// every performance difference comes from architecture, not workload or
// implementation shortcuts.
package dbx1000

import (
	"fmt"

	"anydb/internal/cc"
	"anydb/internal/metrics"
	"anydb/internal/oltp"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// Engine is the baseline DBMS instance.
type Engine struct {
	Sched *sim.Scheduler
	Costs sim.CostModel
	DB    *storage.Database
	cfg   tpcc.Config

	tes []*sim.Actor
	lm  *cc.LockManager

	source func() *tpcc.Txn
	nextID cc.TxnID

	// Counters (reset per measurement window by the harness).
	Committed metrics.Counter
	Aborted   metrics.Counter // user aborts (invalid item)
	Retries   metrics.Counter // lock-conflict retries

	// OLAP state (HTAP mode).
	olapRepeat    bool
	olapSeq       int64
	QueryDone     int64
	QueryLast     sim.Time // latency of the most recent completed query
	LastQueryRows int64    // result cardinality of the last query
	TxnLatency    metrics.Histogram
}

type txnMsg struct {
	id      cc.TxnID
	txn     *tpcc.Txn
	attempt int
	started sim.Time
}

type lockReq struct {
	res  cc.Resource
	mode cc.Mode
}

// maxBackoffMult caps exponential retry backoff.
const maxBackoffMult = 16

// New builds a baseline engine with the given TE count over db.
func New(sched *sim.Scheduler, db *storage.Database, cfg tpcc.Config, tes int, costs sim.CostModel) *Engine {
	e := &Engine{
		Sched: sched, Costs: costs, DB: db, cfg: cfg.WithDefaults(),
		lm: cc.NewLockManager(),
	}
	for i := 0; i < tes; i++ {
		te := sim.NewActor(sched, fmt.Sprintf("te%d", i), e.handle)
		e.tes = append(e.tes, te)
	}
	return e
}

// TE exposes an executor actor for utilization accounting.
func (e *Engine) TE(i int) *sim.Actor { return e.tes[i] }

// teOf statically routes a partition to its executor.
func (e *Engine) teOf(partition int) *sim.Actor { return e.tes[partition%len(e.tes)] }

// SetSource installs the closed-loop transaction source.
func (e *Engine) SetSource(fn func() *tpcc.Txn) { e.source = fn }

// Prime injects the initial outstanding transactions (closed loop: every
// completion immediately draws the next from the source).
func (e *Engine) Prime(outstanding int) {
	for i := 0; i < outstanding; i++ {
		e.injectNext(0)
	}
}

func (e *Engine) injectNext(at sim.Time) {
	if e.source == nil {
		return
	}
	txn := e.source()
	if txn == nil {
		return
	}
	e.nextID++
	m := &txnMsg{id: e.nextID, txn: txn, started: at}
	e.teOf(txn.HomeWarehouse()).DeliverAt(m, at)
}

// handle is the TE message loop.
func (e *Engine) handle(a *sim.Actor, m sim.Message) {
	switch v := m.(type) {
	case *txnMsg:
		e.runTxn(a, v)
	case *scanChunk:
		e.runScanChunk(a, v)
	case *joinWork:
		e.runJoinWork(a, v)
	default:
		panic(fmt.Sprintf("dbx1000: unknown message %T", m))
	}
}

// runTxn executes one transaction attempt under no-wait two-phase
// locking: intention-exclusive locks on every touched partition (so OLAP
// scans' shared partition locks conflict with writers) plus exclusive
// record locks per operation — DBx1000's NO_WAIT scheme. Locks
// conceptually remain held until the end of the charged execution window,
// so the release is scheduled at the actor's local completion time —
// handlers of other TEs running inside that window observe the conflict.
func (e *Engine) runTxn(a *sim.Actor, m *txnMsg) {
	a.Charge(e.Costs.TxnBegin)
	ops := oltp.Program(*m.txn)

	// Growing phase: partition IX locks first (stable order), then the
	// record locks of each operation.
	var wanted []lockReq
	seen := make(map[int]bool)
	for _, op := range ops {
		if !seen[op.Warehouse()] {
			seen[op.Warehouse()] = true
			wanted = append(wanted, lockReq{res: cc.PartitionResource(op.Warehouse()), mode: cc.IntentExclusive})
		}
	}
	for _, op := range ops {
		for _, res := range op.Locks() {
			wanted = append(wanted, lockReq{res: res, mode: cc.Exclusive})
		}
	}
	for _, req := range wanted {
		a.Charge(e.Costs.LockAcquire)
		if e.lm.Acquire(m.id, req.res, req.mode) {
			continue
		}
		// No-wait: abort, back off, retry on the same TE.
		a.Charge(e.Costs.LockAbort)
		n := e.lm.ReleaseAll(m.id)
		a.Charge(e.Costs.LockRelease * sim.Time(n))
		e.Retries.Inc()
		m.attempt++
		mult := sim.Time(m.attempt)
		if mult > maxBackoffMult {
			mult = maxBackoffMult
		}
		a.Deliver(m, a.Now()-a.Scheduler().Now()+e.Costs.RetryDelay*mult)
		return
	}

	var undo storage.UndoLog
	ex := &oltp.Exec{DB: e.DB, Costs: &e.Costs, Charge: a.Charge, Undo: &undo}
	for _, op := range ops {
		if err := op.Run(ex); err != nil {
			// Logical abort (invalid item): roll back and finish.
			n := undo.Rollback()
			a.Charge(e.Costs.UndoOp * sim.Time(n))
			e.releaseAt(a, m.id)
			e.Aborted.Inc()
			e.afterTxn(a, m)
			return
		}
	}
	undo.Commit()
	a.Charge(e.Costs.TxnCommit)
	e.releaseAt(a, m.id)
	e.Committed.Inc()
	e.TxnLatency.Record(toDuration(a.Now() - m.started))
	e.afterTxn(a, m)
}

// releaseAt schedules the lock release at the actor's local completion
// time so the critical section spans the whole charged window.
func (e *Engine) releaseAt(a *sim.Actor, id cc.TxnID) {
	n := e.lm.Held(id)
	a.Charge(e.Costs.LockRelease * sim.Time(n))
	e.Sched.At(a.Now(), func() { e.lm.ReleaseAll(id) })
}

// afterTxn keeps the closed loop full.
func (e *Engine) afterTxn(a *sim.Actor, m *txnMsg) {
	e.injectNext(a.Now())
}
