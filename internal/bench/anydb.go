// Package bench regenerates every figure of the paper's evaluation:
// Figure 1 (evolving workload), Figure 5 (OLTP execution strategies) and
// Figure 6 (data beaming), plus ablations. Engines run on the
// virtual-time kernel; README's "Regenerating the paper's figures" indexes
// the experiments and internal/sim/cost.go gives the calibration
// rationale.
package bench

import (
	"anydb/internal/adapt"
	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/oltp"
	"anydb/internal/plan"
	"anydb/internal/route"
	"anydb/internal/sim"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// AnyDB is the workload driver of the virtual-time harness: it runs the
// cluster's shared route.Assembly — the same behavior set and routing
// the public runtime builds — on the Figure 2 layout (2 servers × 4 ACs,
// growable) in a SimCluster, and adds what only an experiment needs: the
// closed-loop transaction source, the drain-reroute-resume protocol for
// policy switches, the HTAP query streams and the window counters.
type AnyDB struct {
	Cl  *core.SimCluster
	Cfg tpcc.Config
	Asm *route.Assembly

	extra []core.ACID // grown servers for HTAP isolation

	gen      *tpcc.Generator
	nextTxn  core.TxnID
	nextQID  core.QueryID
	inflight int
	paused   bool
	depth    int // closed-loop depth of the last Prime

	// Self-driving mode (Asm.Ctrl set): the controller behavior observes
	// EvSignal telemetry and emits EvAdapt decisions; the harness applies
	// a pending switch once in-flight work drains.
	pendingSwitch *adapt.Decision

	// Window counters, reset by TakeWindow.
	committed int64
	aborted   int64
	queries   int64

	olapOn bool
}

// NewAnyDB builds the cluster over a freshly populated database.
func NewAnyDB(db *storage.Database, cfg tpcc.Config, costs sim.CostModel) *AnyDB {
	return newAnyDB(db, cfg, costs, nil)
}

// NewAdaptiveAnyDB builds the cluster with the self-driving loop wired
// in: every dispatcher and the commit coordinator report telemetry to
// the sequencer AC, where the controller runs as the EvSignal behavior.
// Decisions reach the harness as EvAdapt client events and are applied
// as soon as in-flight work drains — no scripted switches anywhere.
// Zero Env fields in opts are derived from the built topology, so the
// cost model always scores against the real executor count.
func NewAdaptiveAnyDB(db *storage.Database, cfg tpcc.Config, costs sim.CostModel, opts adapt.Options) *AnyDB {
	return newAnyDB(db, cfg, costs, &opts)
}

func newAnyDB(db *storage.Database, cfg tpcc.Config, costs sim.CostModel, aopts *adapt.Options) *AnyDB {
	a := &AnyDB{Cfg: cfg.WithDefaults()}
	topo := core.NewTopology(db)
	execs := topo.AddServer(4)
	topo.AddServer(4)
	for w := 0; w < a.Cfg.Warehouses; w++ {
		topo.SetOwner(w, execs[w%len(execs)])
	}
	a.Asm = route.NewAssembly(db, topo)
	if aopts != nil {
		if aopts.Env.Executors == 0 {
			aopts.Env.Executors = len(execs)
		}
		if aopts.Env.Warehouses == 0 {
			aopts.Env.Warehouses = a.Cfg.Warehouses
		}
		a.Asm.Ctrl = adapt.NewController(*aopts)
	}
	a.Cl = core.NewSimCluster(topo, costs, a.Asm.SetupAC)
	// AnyDB's deployment uses DPI flows (§4): cross-server streams are
	// serialized and partitioned by the NICs, not the sending cores.
	a.Cl.DPI = true
	a.Cl.SetClient(a.onClient)
	return a
}

// SetWorkload installs the transaction generator.
func (a *AnyDB) SetWorkload(gen *tpcc.Generator) { a.gen = gen }

// SetPolicy reroutes subsequent transactions under policy's standard
// routing table (route.For — the mapping the public runtime uses).
// Callers must Drain first when switching between policies whose
// routings could interleave conflicting events differently (the harness
// drains at phase boundaries; in-flight work always completes under its
// old routing — the paper's "no downtime" reconfiguration).
func (a *AnyDB) SetPolicy(policy oltp.Policy) { a.Asm.SetPolicy(policy) }

// entryAC picks where a transaction enters the system (see route.Entry).
func (a *AnyDB) entryAC(txn *tpcc.Txn) core.ACID {
	return route.Entry(a.Asm.Policy(), a.Asm.Lay, txn.HomeWarehouse())
}

// injectNext issues one transaction from the generator (closed loop).
// The txn rides the pool: the dispatcher frees it once the op program
// is compiled, so the closed loop allocates no Txn in steady state.
func (a *AnyDB) injectNext(at sim.Time) {
	txn := tpcc.GetTxn()
	a.gen.NextInto(txn)
	a.nextTxn++
	a.inflight++
	a.Cl.Inject(a.entryAC(txn), &core.Event{
		Kind: core.EvTxn, Txn: a.nextTxn, Payload: txn,
	}, at)
}

// Prime seeds the closed loop with n outstanding transactions.
func (a *AnyDB) Prime(n int) {
	a.paused = false
	a.depth = n
	for i := 0; i < n; i++ {
		a.injectNext(a.Cl.Sched.Now())
	}
}

// AdaptLog returns the self-driving controller's decisions (nil when
// the cluster was built without one).
func (a *AnyDB) AdaptLog() []adapt.Decision {
	if a.Asm.Ctrl == nil {
		return nil
	}
	return a.Asm.Ctrl.Log()
}

// onClient keeps the loop full and counts completions.
func (a *AnyDB) onClient(at sim.Time, ev *core.Event) {
	switch p := ev.Payload.(type) {
	case *oltp.DoneInfo:
		if p.Committed {
			a.committed++
		} else {
			a.aborted++
		}
		a.inflight--
		if a.pendingSwitch != nil {
			// Architecture shift in flight: stop refilling the loop;
			// once drained, reroute and resume. This is the same
			// drain-reroute-resume protocol the scripted harness uses,
			// driven by the controller instead of the script.
			if a.inflight == 0 {
				a.applyPendingSwitch()
			}
			return
		}
		if !a.paused {
			a.injectNext(at)
		}
	case *olap.QueryResult:
		freeBatches(p)
		a.queries++
		if a.olapOn {
			a.startQuery(at)
		}
	case *adapt.Decision:
		if p.From == p.To {
			// Grow-only decisions are the harness's business (the
			// evolving workload grows servers with the OLAP load).
			return
		}
		// Latest decision wins: the controller tracks the policy it
		// chose, so an un-applied older target must not shadow a
		// newer one (e.g. a revert emitted mid-drain).
		a.pendingSwitch = p
		if a.inflight == 0 {
			a.applyPendingSwitch()
		}
	}
}

// applyPendingSwitch reroutes to the controller's chosen policy and
// refills the closed loop. Runs inside the client callback with no
// transactions in flight, so no conflicting work straddles routings.
func (a *AnyDB) applyPendingSwitch() {
	d := a.pendingSwitch
	a.pendingSwitch = nil
	if d.To != a.Asm.Policy() {
		a.SetPolicy(d.To)
	}
	if !a.paused {
		a.Prime(a.depth)
	}
}

// Drain pauses injection and runs until all in-flight transactions
// complete (used at policy switches).
func (a *AnyDB) Drain() {
	a.paused = true
	for a.inflight > 0 {
		a.Cl.RunUntil(a.Cl.Sched.Now() + sim.Millisecond)
	}
}

// TakeWindow returns and resets the window counters.
func (a *AnyDB) TakeWindow() (committed, aborted, queries int64) {
	committed, aborted, queries = a.committed, a.aborted, a.queries
	a.committed, a.aborted, a.queries = 0, 0, 0
	return
}

// EnableOLAP grows two extra servers (Figure 3b) on first use and starts
// `streams` continuous chains of the paper's query (tpcc.Q3SQL) with
// full data beaming, isolated from the OLTP ACs: joins, the sink and the
// QO run on the new servers, scans ride the storage owners' shared
// cursors.
func (a *AnyDB) EnableOLAP(streams int) {
	if len(a.extra) == 0 {
		a.extra = append(a.extra, a.Cl.GrowServer(4, a.Asm.SetupAC)...)
		a.extra = append(a.extra, a.Cl.GrowServer(4, a.Asm.SetupAC)...)
	}
	if !a.olapOn {
		a.olapOn = true
		if streams < 1 {
			streams = 1
		}
		for i := 0; i < streams; i++ {
			a.startQuery(a.Cl.Sched.Now())
		}
	}
}

// DisableOLAP stops issuing new queries.
func (a *AnyDB) DisableOLAP() { a.olapOn = false }

func (a *AnyDB) startQuery(at sim.Time) {
	a.nextQID++
	// Any AC can act as the query optimizer (Figure 2): rotate the QO
	// role across the extra servers so concurrent query streams compile
	// in parallel.
	n := len(a.extra)
	qoAC := a.extra[(int(a.nextQID)*3+2)%n]
	// Spread the query streams' operators across the extra servers' ACs.
	base := int(a.nextQID) * 2 % n
	p := compileQ3(a.Asm.DB, a.Cfg, a.nextQID, a.extra[base], a.extra[(base+1)%n])
	p.Beam, p.CompileTime = plan.BeamAll, 2*sim.Millisecond
	a.Cl.Inject(qoAC, &core.Event{Kind: core.EvQuery, Query: a.nextQID, Payload: p}, at)
}

// compileQ3 plans the paper's query through the SQL planner, as
// Cluster.Query does: scans at each partition's owner, join1 on join1AC,
// join2 and the sink on join2AC.
func compileQ3(db *storage.Database, cfg tpcc.Config, qid core.QueryID, join1AC, join2AC core.ACID) *plan.GenericPlan {
	q, err := sql.Parse(tpcc.Q3SQL)
	if err != nil {
		panic(err)
	}
	parts := make([]int, cfg.Warehouses)
	for i := range parts {
		parts[i] = i
	}
	p, err := plan.CompileSQL(db.Catalog, q, qid, parts, []core.ACID{join1AC, join2AC}, core.ClientAC)
	if err != nil {
		panic(err)
	}
	return p
}

// freeBatches recycles a query result's pooled batches.
func freeBatches(res *olap.QueryResult) {
	for _, b := range res.Batches {
		storage.FreeBatch(b)
	}
}
