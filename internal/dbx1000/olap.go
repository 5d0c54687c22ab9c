package dbx1000

import (
	"time"

	"anydb/internal/cc"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// The baseline's HTAP story (§4, Figure 1 phases 6–11): OLAP queries run
// on the same transaction executors as the OLTP workload, chunk by
// chunk, taking shared partition locks while scanning. Writers conflict
// with those locks (no-wait → abort/retry) and the join work steals TE
// cycles — the two interference channels AnyDB avoids by beaming data to
// disaggregated compute.

// olapChunkRows bounds how many rows one scan chunk visits while holding
// the partition's shared lock. Longer chunks amortize locking but stall
// concurrent writers for the whole hold — the interference channel the
// Figure 1 HTAP phases measure.
const olapChunkRows = 2048

// olapCompile models the optimizer/plan time the baseline spends before
// the first scan chunk (AnyDB's QO charges the equivalent window).
const olapCompile = 2 * sim.Millisecond

// query is one in-flight Q3 execution.
type query struct {
	id      int64
	started sim.Time
	// customer-match and order-match sets (the two join hash tables).
	cust  map[storage.Key]bool
	ord   map[storage.Key]bool
	count int64 // open qualifying orders
	phase int   // 0=customer, 1=orders, 2=new_order
	// lockID is the query's identity in the lock table (reader txn).
	lockID  cc.TxnID
	pending int // partition scans outstanding in the current phase
}

type scanChunk struct {
	q    *query
	part int
	from int32
}

type joinWork struct {
	q *query
}

// StartOLAP begins Q3 execution: `streams` concurrent query chains, each
// re-issuing on completion when repeat is set (an HTAP query stream).
func (e *Engine) StartOLAP(repeat bool, streams int) {
	e.olapRepeat = repeat
	if streams < 1 {
		streams = 1
	}
	for i := 0; i < streams; i++ {
		e.startQuery(e.Sched.Now())
	}
}

func (e *Engine) startQuery(at sim.Time) {
	e.olapSeq++
	q := &query{
		id:      e.olapSeq,
		started: at,
		cust:    make(map[storage.Key]bool),
		ord:     make(map[storage.Key]bool),
		lockID:  cc.TxnID(1<<62 + uint64(e.olapSeq)),
		pending: e.cfg.Warehouses,
	}
	// One scan stream per partition, spread round-robin over the TEs,
	// starting after the compile window.
	for p := 0; p < e.cfg.Warehouses; p++ {
		e.teOf(p).DeliverAt(&scanChunk{q: q, part: p, from: 0}, at+olapCompile)
	}
}

// runScanChunk scans up to olapChunkRows rows of the current phase's
// table under a shared partition lock.
func (e *Engine) runScanChunk(a *sim.Actor, c *scanChunk) {
	res := cc.PartitionResource(c.part)
	a.Charge(e.Costs.LockAcquire)
	if !e.lm.Acquire(c.q.lockID, res, cc.Shared) {
		// A writer holds the partition: retry shortly.
		a.Charge(e.Costs.LockAbort)
		a.Deliver(c, a.Now()-a.Scheduler().Now()+e.Costs.RetryDelay)
		return
	}

	p := e.DB.Partition(c.part)
	var next int32
	var done bool
	switch c.q.phase {
	case 0:
		t := p.Table(tpcc.TCustomer)
		wCol, dCol, cCol := t.Schema.MustCol("c_w_id"), t.Schema.MustCol("c_d_id"), t.Schema.MustCol("c_id")
		sCol := t.Schema.MustCol("c_state")
		next, done = t.ScanRange(c.from, olapChunkRows, func(_ int32, r storage.Row) bool {
			a.Charge(e.Costs.ScanRow)
			if len(r[sCol].S) > 0 && r[sCol].S[:1] == tpcc.Q3StatePrefix {
				a.Charge(e.Costs.HashBuildRow)
				c.q.cust[storage.MakeKey(int(r[wCol].I), int(r[dCol].I), r[cCol].I)] = true
			}
			return true
		})
	case 1:
		t := p.Table(tpcc.TOrders)
		wCol, dCol, oCol := t.Schema.MustCol("o_w_id"), t.Schema.MustCol("o_d_id"), t.Schema.MustCol("o_id")
		cCol, yCol := t.Schema.MustCol("o_c_id"), t.Schema.MustCol("o_entry_d")
		next, done = t.ScanRange(c.from, olapChunkRows, func(_ int32, r storage.Row) bool {
			a.Charge(e.Costs.ScanRow)
			if r[yCol].I >= tpcc.Q3SinceYear {
				a.Charge(e.Costs.HashProbeRow)
				if c.q.cust[storage.MakeKey(int(r[wCol].I), int(r[dCol].I), r[cCol].I)] {
					a.Charge(e.Costs.HashBuildRow)
					c.q.ord[storage.MakeKey(int(r[wCol].I), int(r[dCol].I), r[oCol].I)] = true
				}
			}
			return true
		})
	case 2:
		t := p.Table(tpcc.TNewOrder)
		wCol, dCol, oCol := t.Schema.MustCol("no_w_id"), t.Schema.MustCol("no_d_id"), t.Schema.MustCol("no_o_id")
		next, done = t.ScanRange(c.from, olapChunkRows, func(_ int32, r storage.Row) bool {
			a.Charge(e.Costs.ScanRow)
			a.Charge(e.Costs.HashProbeRow)
			if c.q.ord[storage.MakeKey(int(r[wCol].I), int(r[dCol].I), r[oCol].I)] {
				c.q.count++
				a.Charge(e.Costs.AggRow)
			}
			return true
		})
	}
	// Release at the charged completion time (see releaseAt).
	a.Charge(e.Costs.LockRelease)
	lockID := c.q.lockID
	e.Sched.At(a.Now(), func() { e.lm.Release(lockID, res) })

	if !done {
		c.from = next
		a.Send(a, c, 0) // continue this partition's stream on this TE
		return
	}
	c.q.pending--
	if c.q.pending == 0 {
		c.q.phase++
		if c.q.phase <= 2 {
			for p := 0; p < e.cfg.Warehouses; p++ {
				e.teOf(p).DeliverAt(&scanChunk{q: c.q, part: p, from: 0}, a.Now())
			}
			c.q.pending = e.cfg.Warehouses
			return
		}
		// Final aggregation/result assembly.
		a.Send(a, &joinWork{q: c.q}, 0)
	}
}

// runJoinWork finishes the query: charge result materialization and
// restart when continuous.
func (e *Engine) runJoinWork(a *sim.Actor, w *joinWork) {
	a.Charge(e.Costs.AggRow * sim.Time(w.q.count+1))
	e.QueryDone++
	e.QueryLast = a.Now() - w.q.started
	e.LastQueryRows = w.q.count
	if e.olapRepeat {
		e.Sched.At(a.Now(), func() { e.startQuery(e.Sched.Now()) })
	}
}

func toDuration(t sim.Time) time.Duration { return time.Duration(t) }
