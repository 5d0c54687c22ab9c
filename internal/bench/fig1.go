package bench

import (
	"anydb/internal/adapt"
	"anydb/internal/metrics"
	"anydb/internal/oltp"
	"anydb/internal/sim"
	"anydb/internal/tpcc"
)

// fig1Phase describes one of the 12 evolving-workload phases of Figure 1.
type fig1Phase struct {
	mix    tpcc.Mix
	htap   bool
	policy oltp.Policy // AnyDB's oracle routing choice for the phase
}

// fig1Phases: partitionable OLTP (0–2) → skewed OLTP (3–5) → skewed HTAP
// (6–8) → partitionable HTAP (9–11). AnyDB's per-phase policy is the
// paper's "optimal decision" oracle (§2.3: the prototype showcases the
// approach with optimal routing; learned optimizers are future work).
func fig1Phases() []fig1Phase {
	var out []fig1Phase
	add := func(n int, mix tpcc.Mix, htap bool, pol oltp.Policy) {
		for i := 0; i < n; i++ {
			out = append(out, fig1Phase{mix: mix, htap: htap, policy: pol})
		}
	}
	add(3, tpcc.Partitionable(), false, oltp.SharedNothing)
	add(3, tpcc.Skewed(), false, oltp.StreamingCC)
	add(3, tpcc.Skewed(), true, oltp.StreamingCC)
	add(3, tpcc.Partitionable(), true, oltp.SharedNothing)
	return out
}

// Fig1Result carries the OLTP throughput lines — the static baseline,
// the scripted AnyDB oracle, and the self-driving adaptive run — plus
// the HTAP-side OLAP rates the paper's §4 narrative mentions.
type Fig1Result struct {
	Series []*metrics.Series
	// Queries completed during the HTAP phases.
	DBxQueries   int64
	AnyDBQueries int64
	// Adaptations is the controller's decision log from the adaptive
	// run (zero scripted switches; these are its own).
	Adaptations []adapt.Decision
}

// Figure1 reproduces the paper's Figure 1: OLTP throughput of the static
// DBx1000 versus AnyDB adapting its architecture per phase.
func Figure1(opts OLTPOpts) Fig1Result {
	phases := fig1Phases()
	var res Fig1Result

	// Baseline: static shared-nothing, OLAP co-located from phase 6 on.
	mixes := make([]tpcc.Mix, len(phases))
	for i, p := range phases {
		mixes[i] = p.mix
	}
	htapFrom := -1
	for i, p := range phases {
		if p.htap {
			htapFrom = i
			break
		}
	}
	dbxSeries, dbxEng := RunDBxSeries(opts, 4, mixes, htapFrom)
	dbxSeries.Label = "DBx1000"
	res.Series = append(res.Series, dbxSeries)
	res.DBxQueries = dbxEng.QueryDone

	// AnyDB: adapt policy and OLAP isolation per phase.
	db, cfg := tpcc.NewDatabase(opts.Cfg)
	a := NewAnyDB(db, cfg, sim.DefaultCosts())
	gen := tpcc.NewGenerator(cfg, phases[0].mix, opts.Seed)
	a.SetWorkload(gen)
	a.SetPolicy(phases[0].policy)
	a.Prime(opts.Outstanding)

	s := &metrics.Series{Label: "AnyDB"}
	cur := phases[0].policy
	for i, p := range phases {
		gen.SetMix(p.mix)
		if p.policy != cur {
			// Architecture shift: drain in-flight work (bounded by
			// the closed-loop depth), reroute, resume — no
			// reconfiguration downtime beyond that. The drain eats
			// into the phase's measured window, which is the visible
			// transition dip at phases 3 and 9.
			a.Drain()
			a.SetPolicy(p.policy)
			a.Prime(opts.Outstanding)
			cur = p.policy
		}
		if p.htap {
			a.EnableOLAP(opts.OLAPStreams)
		} else {
			a.DisableOLAP()
		}
		a.TakeWindow()
		a.Cl.RunUntil(sim.Time(i+1) * opts.PhaseDur)
		committed, _, queries := a.TakeWindow()
		res.AnyDBQueries += queries
		s.Append(mtps(committed, opts.PhaseDur))
	}
	res.Series = append(res.Series, s)

	// Self-driving AnyDB: same workload, zero scripted switches — the
	// adaptation controller observes and reroutes on its own.
	adaptive, auto := RunEvolvingAdaptive(opts, oltp.SharedNothing)
	res.Series = append(res.Series, adaptive)
	res.Adaptations = auto.AdaptLog()
	return res
}
