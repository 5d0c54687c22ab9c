package bench

import (
	"anydb/internal/adapt"
	"anydb/internal/metrics"
	"anydb/internal/oltp"
	"anydb/internal/sim"
	"anydb/internal/tpcc"
)

// RunEvolvingStatic measures one fixed routing policy across the
// 12-phase Figure 1 evolving workload (OLAP streams on during the HTAP
// phases). Together the four static series define, per phase, the bar
// the self-driving controller is judged against.
func RunEvolvingStatic(opts OLTPOpts, v anyDBVariant) (*metrics.Series, *AnyDB) {
	phases := fig1Phases()
	db, cfg := tpcc.NewDatabase(opts.Cfg)
	a := NewAnyDB(db, cfg, sim.DefaultCosts())
	a.SetPolicy(v.policy)
	gen := tpcc.NewGenerator(cfg, phases[0].mix, opts.Seed)
	a.SetWorkload(gen)
	a.Prime(opts.Outstanding)

	s := &metrics.Series{Label: v.label}
	runEvolving(a, gen, opts, phases, s)
	return s, a
}

// RunEvolvingStaticPolicy is RunEvolvingStatic addressed by policy,
// for callers outside the package (the autopilot example).
func RunEvolvingStaticPolicy(opts OLTPOpts, p oltp.Policy, label string) (*metrics.Series, *AnyDB) {
	for _, v := range fig5Variants() {
		if v.policy == p {
			v.label = label
			return RunEvolvingStatic(opts, v)
		}
	}
	panic("bench: unknown policy")
}

// RunEvolvingAdaptive measures the self-driving cluster across the
// evolving workload: it starts on the given static policy and is never
// told about phase changes — the adaptation controller observes the
// telemetry stream and reroutes on its own. All four policies are
// candidates; Env comes from the built topology.
func RunEvolvingAdaptive(opts OLTPOpts, start oltp.Policy) (*metrics.Series, *AnyDB) {
	phases := fig1Phases()
	db, cfg := tpcc.NewDatabase(opts.Cfg)
	a := NewAdaptiveAnyDB(db, cfg, sim.DefaultCosts(), adapt.Options{Start: start})
	a.SetPolicy(start)
	gen := tpcc.NewGenerator(cfg, phases[0].mix, opts.Seed)
	a.SetWorkload(gen)
	a.Prime(opts.Outstanding)

	s := &metrics.Series{Label: "AnyDB Adaptive"}
	runEvolving(a, gen, opts, phases, s)
	return s, a
}

// runEvolving drives one engine through the evolving phases, appending
// per-phase throughput to s. Only the workload (mix, OLAP streams)
// changes at phase boundaries; routing is whatever the engine's policy
// (static, or controller-driven) currently is.
func runEvolving(a *AnyDB, gen *tpcc.Generator, opts OLTPOpts, phases []fig1Phase, s *metrics.Series) {
	for i, p := range phases {
		gen.SetMix(p.mix)
		if p.htap {
			a.EnableOLAP(opts.OLAPStreams)
		} else {
			a.DisableOLAP()
		}
		a.TakeWindow()
		a.Cl.RunUntil(sim.Time(i+1) * opts.PhaseDur)
		committed, _, _ := a.TakeWindow()
		s.Append(mtps(committed, opts.PhaseDur))
	}
}
