// Package plan contains the query-optimizer-as-AnyComponent: the SQL
// planner (CompileSQL: Compile a statement's Template once, then Bind it
// per query) that turns a parsed query into a routed
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
//
// A join's probe-side scan that is not beamed is not installed by the
// QO at all: it rides the join's spec, and the join installs it once
// its build side is complete, with a filter over the build keys
// (sideways information passing). Beaming and filtering are the two
// ways to cut a probe side's cost — hide its transfer behind the
// compile, or ship only the rows the join can use — and a probe scan
// takes exactly one of them. A zero compile window hides nothing, so a
// probe beamed into one is held and filtered instead.
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
	// Scan i >= 1 is join i-1's probe side; hold reports whether that
	// join installs it.
	hold := func(i int) bool {
		return i > 0 && !p.Unfiltered && (i >= beamed || p.CompileTime == 0)
	}
	for i := range p.scans[:beamed] {
		if !hold(i) {
			q.emitScan(ctx, p, &p.scans[i])
		}
	}

	// Phase 2 — compile. The QO core is busy for the whole window
	// (the paper cites ~30ms for a commercial optimizer on this query),
	// on the goroutine runtime too.
	core.Occupy(ctx, p.CompileTime)

	// Phase 3 — execution: install whatever scans were neither beamed
	// nor held, the joins (with their held probe scans) and the sink.
	for i := beamed; i < len(p.scans); i++ {
		if !hold(i) {
			q.emitScan(ctx, p, &p.scans[i])
		}
	}
	for i, js := range p.joins {
		if hold(i + 1) {
			held := *js
			held.ProbeScans = make([]olap.ScanInstall, len(p.Parts))
			for k, part := range p.Parts {
				held.ProbeScans[k] = olap.ScanInstall{At: q.Topo.Owner(part), Spec: scanSpec(p, &p.scans[i+1], part)}
			}
			js = &held
		}
		ev := core.GetEvent()
		ev.Kind, ev.Query, ev.Payload = core.EvInstallOp, p.Query, js
		ctx.Send(p.joinACs[i], ev)
	}
	sink := core.GetEvent()
	sink.Kind, sink.Query, sink.Payload = core.EvInstallOp, p.Query, p.sink
	ctx.Send(p.sinkAC, sink)
}

// emitScan installs one shared-scan registration per partition at the
// partition's owner.
func (q *QO) emitScan(ctx core.Context, p *GenericPlan, sc *scanTemplate) {
	for _, part := range p.Parts {
		ev := core.GetEvent()
		ev.Kind, ev.Query, ev.Payload = core.EvInstallOp, p.Query, scanSpec(p, sc, part)
		ctx.Send(q.Topo.Owner(part), ev)
	}
}

// scanSpec instantiates scan template sc for one partition.
func scanSpec(p *GenericPlan, sc *scanTemplate, part int) *olap.SharedScanSpec {
	spec := sc.spec
	spec.Part, spec.Producers = part, len(p.Parts)
	return &spec
}
