package bench

import (
	"anydb/internal/dbx1000"
	"anydb/internal/metrics"
	"anydb/internal/oltp"
	"anydb/internal/sim"
	"anydb/internal/tpcc"
)

// OLTPOpts parameterizes the Figure 1 / Figure 5 throughput experiments.
type OLTPOpts struct {
	Cfg         tpcc.Config
	PhaseDur    sim.Time // virtual time per workload phase
	Outstanding int      // closed-loop depth
	OLAPStreams int      // concurrent HTAP query chains (Figure 1)
	Seed        int64
}

// DefaultOLTPOpts mirrors the paper's setup: 4 warehouses over 2 servers
// × 4 cores, 100% payment (the transaction §3's experiments contend on).
func DefaultOLTPOpts() OLTPOpts {
	return OLTPOpts{
		Cfg: tpcc.Config{Warehouses: 4, Districts: 10, Customers: 600,
			Items: 1000, InitOrders: 1500, LinesPerOrder: 1, Seed: 42},
		PhaseDur:    20 * sim.Millisecond,
		Outstanding: 32,
		OLAPStreams: 4,
		Seed:        7,
	}
}

// fig5Phases: partitionable OLTP (0–2) then skewed OLTP (3–5).
func fig5Phases() []tpcc.Mix {
	var phases []tpcc.Mix
	for i := 0; i < 3; i++ {
		phases = append(phases, tpcc.Partitionable())
	}
	for i := 0; i < 3; i++ {
		phases = append(phases, tpcc.Skewed())
	}
	return phases
}

// mtps converts a committed count per window into million tx/s.
func mtps(committed int64, window sim.Time) float64 {
	return float64(committed) / window.Seconds() / 1e6
}

// RunDBxSeries measures the baseline with the given TE count across the
// phases; htapFrom >= 0 starts continuous OLAP at that phase index.
func RunDBxSeries(opts OLTPOpts, tes int, phases []tpcc.Mix, htapFrom int) (*metrics.Series, *dbx1000.Engine) {
	db, cfg := tpcc.NewDatabase(opts.Cfg)
	sched := sim.NewScheduler()
	eng := dbx1000.New(sched, db, cfg, tes, sim.DefaultCosts())
	gen := tpcc.NewGenerator(cfg, phases[0], opts.Seed)
	eng.SetSource(func() *tpcc.Txn { txn := gen.Next(); return &txn })
	eng.Prime(opts.Outstanding)

	s := &metrics.Series{Label: seriesLabel("DBx1000", tes)}
	for i, mix := range phases {
		gen.SetMix(mix)
		if htapFrom >= 0 && i == htapFrom {
			eng.StartOLAP(true, opts.OLAPStreams)
		}
		eng.Committed.Reset()
		sched.RunUntil(sim.Time(i+1) * opts.PhaseDur)
		s.Append(mtps(eng.Committed.Load(), opts.PhaseDur))
	}
	return s, eng
}

func seriesLabel(base string, tes int) string {
	if tes == 1 {
		return base + " 1TE"
	}
	return base + " 4TE"
}

// anyDBVariant describes one AnyDB line of Figure 5. Routing tables come
// from internal/route via AnyDB.SetPolicy.
type anyDBVariant struct {
	label  string
	policy oltp.Policy
}

func fig5Variants() []anyDBVariant {
	return []anyDBVariant{
		{"AnyDB Shared-Nothing", oltp.SharedNothing},
		{"AnyDB Static Intra-Txn", oltp.NaiveIntra},
		{"AnyDB Precise Intra-Txn", oltp.PreciseIntra},
		{"AnyDB Streaming CC", oltp.StreamingCC},
	}
}

// RunAnyDBSeries measures one fixed AnyDB routing strategy across phases.
func RunAnyDBSeries(opts OLTPOpts, v anyDBVariant, phases []tpcc.Mix) (*metrics.Series, *AnyDB) {
	db, cfg := tpcc.NewDatabase(opts.Cfg)
	a := NewAnyDB(db, cfg, sim.DefaultCosts())
	a.SetPolicy(v.policy)
	gen := tpcc.NewGenerator(cfg, phases[0], opts.Seed)
	a.SetWorkload(gen)
	a.Prime(opts.Outstanding)

	s := &metrics.Series{Label: v.label}
	for i, mix := range phases {
		gen.SetMix(mix)
		a.TakeWindow()
		a.Cl.RunUntil(sim.Time(i+1) * opts.PhaseDur)
		committed, _, _ := a.TakeWindow()
		s.Append(mtps(committed, opts.PhaseDur))
	}
	return s, a
}

// Figure5 reproduces the paper's Figure 5: OLTP throughput of six
// configurations across partitionable (0–2) and skewed (3–5) phases.
func Figure5(opts OLTPOpts) []*metrics.Series {
	phases := fig5Phases()
	var out []*metrics.Series
	for _, tes := range []int{4, 1} {
		s, _ := RunDBxSeries(opts, tes, phases, -1)
		out = append(out, s)
	}
	for _, v := range fig5Variants() {
		s, _ := RunAnyDBSeries(opts, v, phases)
		out = append(out, s)
	}
	return out
}
