package route

import (
	"sync"

	"anydb/internal/adapt"
	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/oltp"
	"anydb/internal/plan"
	"anydb/internal/storage"
)

// Assembly is the one behavior set every AC of a cluster carries, on
// every runtime: the public goroutine cluster, a member process and the
// virtual-time harness all hand SetupAC to their engine. It also owns the
// dispatcher registry, so a policy switch reaches every dispatcher —
// including those of servers grown after the switch. Set Ctrl and Log
// before the engine runs SetupAC for the first time.
type Assembly struct {
	DB   *storage.Database
	Topo *core.Topology
	// Lay is fixed at construction (growth only adds compute servers), so
	// submission paths read it as a plain field.
	Lay Layout
	// Ctrl, when set, is the adaptation controller: it registers on
	// EvSignal everywhere, and dispatchers and the coordinator report
	// telemetry to Lay.Seq.
	Ctrl *adapt.Controller
	// Log, when set, makes every dispatcher write-ahead (see
	// oltp.Dispatcher.Log).
	Log oltp.CommandLog

	// mu orders SetupAC against SetPolicy: a dispatcher is built under the
	// active policy and published in one critical section, so a concurrent
	// switch either reconfigures it or runs before it reads the policy.
	mu      sync.Mutex
	policy  oltp.Policy
	dispers map[core.ACID]*oltp.Dispatcher
}

// NewAssembly derives the role layout from topo's first two servers: the
// first server's ACs are the record-class executors and partition owners,
// the second hosts dispatch, sequencing, commit coordination and the
// query optimizer. Both need at least four ACs. Routing starts under
// SharedNothing.
func NewAssembly(db *storage.Database, topo *core.Topology) *Assembly {
	ctrl := topo.ACs(1)
	return &Assembly{
		DB: db, Topo: topo,
		Lay: Layout{
			Owner: topo.Owner, Execs: topo.ACs(0),
			Dispatch: ctrl[0], Seq: ctrl[1], Coord: ctrl[2], QO: ctrl[3],
		},
		dispers: make(map[core.ACID]*oltp.Dispatcher),
	}
}

// SetupAC registers the generic behavior set on ac: executor, OLAP
// worker, query optimizer, sequencer, the controller if any, and either
// the commit coordinator (on Lay.Coord) or a dispatcher configured for
// the active policy.
func (a *Assembly) SetupAC(ac *core.AC) {
	ac.Register(core.EvSegment, &oltp.Executor{DB: a.DB})
	ac.Register(core.EvInstallOp, &olap.Worker{DB: a.DB})
	ac.Register(core.EvQuery, &plan.QO{Topo: a.Topo})
	ac.Register(core.EvSeqStamp, &core.Sequencer{})
	// Every=32 keeps the signal stream dense enough that a sliding
	// window always aggregates several dispatchers' reports — placement
	// decisions need cross-owner coverage, not just volume.
	tel := oltp.Telemetry{Sink: a.Lay.Seq, Every: 32, Enabled: a.Ctrl != nil}
	if a.Ctrl != nil {
		// The controller registers on every AC (components stay
		// generic); only the telemetry sink receives reports, so its
		// state stays on one AC.
		ac.Register(core.EvSignal, a.Ctrl)
	}
	if ac.ID == a.Lay.Coord {
		coord := oltp.NewCoordinator()
		coord.SetTelemetry(tel)
		ac.Register(core.EvAck, coord)
		return
	}
	a.mu.Lock()
	d := oltp.NewDispatcher(a.policy, a.DB, For(a.policy, a.Lay))
	d.SetTelemetry(tel)
	a.dispers[ac.ID] = d
	a.mu.Unlock()
	if a.Log != nil {
		// Admitted transactions park in the dispatcher until the log
		// writer reports their records durable (EvLogDurable); the
		// runtime's batch-end hook kicks the writer once per drain cycle.
		d.Log = a.Log
		ac.OnBatchEnd = d.FlushBatch
		ac.Register(core.EvLogDurable, d)
	}
	ac.Register(core.EvTxn, d)
	ac.Register(core.EvAck, d)
}

// SetPolicy reroutes every dispatcher, and every one set up later, to p.
// In-flight work completes under its old routing; callers drain first
// when the two routings could interleave conflicting work.
func (a *Assembly) SetPolicy(p oltp.Policy) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.policy = p
	routes := For(p, a.Lay)
	for _, d := range a.dispers {
		d.SetConfig(p, routes)
	}
}

// Policy returns the active routing policy.
func (a *Assembly) Policy() oltp.Policy {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.policy
}

// Dispatches reports whether SetupAC gave id a dispatcher — every AC it
// set up except the dedicated commit coordinator.
func (a *Assembly) Dispatches(id core.ACID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.dispers[id]
	return ok
}

// EachParked calls fn for every dispatcher that may hold transactions
// waiting for the command log. It visits nothing without a Log. fn runs
// under the registry lock, so it must not call back into the Assembly.
func (a *Assembly) EachParked(fn func(id core.ACID)) {
	if a.Log == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, d := range a.dispers {
		if d.HasParked() {
			fn(id)
		}
	}
}
