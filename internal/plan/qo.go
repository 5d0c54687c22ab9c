// Package plan contains the query-optimizer-as-AnyComponent: the SQL
// planner (CompileSQL) that turns a parsed query into a routed
// event/data-stream program — shared-scan registrations at the partition
// owners, a left-deep chain of hash joins and one generic sink on the
// compute ACs — and the QO behavior that emits it, including the
// data-beaming schedule of §4. The paper's key observation is that the
// tables a query touches are known before optimization finishes, so
// their data streams can be initiated at query arrival and push data
// while the optimizer still "compiles" — hiding transfer latency behind
// compile time.
package plan

import (
	"fmt"

	"anydb/internal/core"
	"anydb/internal/olap"
)

// BeamMode selects which of the query's base-table streams are initiated
// at query arrival (beamed) versus at compile completion.
type BeamMode uint8

const (
	// BeamNone pulls all data only when execution starts (baseline).
	BeamNone BeamMode = iota
	// BeamBuild beams the first join's build side (the plan's first
	// scan; the customer scan of the paper's query).
	BeamBuild
	// BeamAll beams build and probe sides (every scan).
	BeamAll
)

var beamNames = [...]string{"none", "build", "build+probe"}

func (m BeamMode) String() string {
	if int(m) < len(beamNames) {
		return beamNames[m]
	}
	return fmt.Sprintf("BeamMode(%d)", uint8(m))
}

// QO is the query-optimizer behavior: register for EvQuery on any AC.
// Receiving a plan it (1) immediately initiates the beamed data streams,
// (2) charges the compile time, (3) emits the remaining operator
// installation events. Which architecture the query perceives —
// aggregated or disaggregated — is entirely decided by the ACs named in
// the plan.
type QO struct {
	Topo *core.Topology
	// Compiled counts optimized queries.
	Compiled int64
}

// OnEvent implements core.Behavior for EvQuery; the payload is the
// *GenericPlan CompileSQL produced.
func (q *QO) OnEvent(ctx core.Context, _ *core.AC, ev *core.Event) {
	// The EvQuery envelope dies here (the plan payload lives on in the
	// emitted install events); freeing keeps the pool balance exact.
	defer core.FreeEvent(ev)
	p := ev.Payload.(*GenericPlan)
	q.Compiled++

	// Phase 1 — beaming: initiate data streams before compiling. The
	// scans start pushing immediately; their data stages at the join
	// ACs until the operators are installed.
	beamed := 0
	switch p.Beam {
	case BeamBuild:
		beamed = 1
	case BeamAll:
		beamed = len(p.scans)
	}
	q.emitScans(ctx, p, p.scans[:beamed])

	// Phase 2 — compile. The QO core is busy for the whole window
	// (the paper cites ~30ms for a commercial optimizer on this query).
	ctx.Charge(p.CompileTime)

	// Phase 3 — execution: install whatever scans were not beamed, the
	// joins and the sink.
	q.emitScans(ctx, p, p.scans[beamed:])
	for i, js := range p.joins {
		ev := core.GetEvent()
		ev.Kind, ev.Query, ev.Payload = core.EvInstallOp, p.Query, js
		ctx.Send(p.joinACs[i], ev)
	}
	sink := core.GetEvent()
	sink.Kind, sink.Query, sink.Payload = core.EvInstallOp, p.Query, p.sink
	ctx.Send(p.sinkAC, sink)
}

// emitScans installs one shared-scan registration per (scan, partition)
// at the partition's owner.
func (q *QO) emitScans(ctx core.Context, p *GenericPlan, scans []scanTemplate) {
	for i := range scans {
		sc := &scans[i]
		for _, part := range p.Parts {
			ev := core.GetEvent()
			ev.Kind, ev.Query = core.EvInstallOp, p.Query
			ev.Payload = &olap.SharedScanSpec{
				Query: p.Query, Table: sc.tableID, Part: part,
				Filters: sc.filters, Cols: sc.cols,
				GroupBy: sc.groupBy, Aggs: sc.aggs, DictGroups: sc.dictGroups,
				Out: sc.out, To: sc.to, Producers: len(p.Parts),
			}
			ctx.Send(q.Topo.Owner(part), ev)
		}
	}
}
