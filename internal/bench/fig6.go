package bench

import (
	"fmt"

	"anydb/internal/core"
	"anydb/internal/metrics"
	"anydb/internal/olap"
	"anydb/internal/plan"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// Fig6Opts parameterizes the data-beaming experiment.
type Fig6Opts struct {
	Cfg tpcc.Config
	// CompileTimes is the x-axis sweep.
	CompileTimes []sim.Time
}

// DefaultFig6Opts sizes the database so the probe-side transfer takes
// tens of milliseconds at the modelled link bandwidth — the regime where
// beaming matters (the paper's x-axis reaches 40ms with DB-C compiling at
// 30ms).
func DefaultFig6Opts() Fig6Opts {
	var xs []sim.Time
	for ms := 0; ms <= 40; ms += 5 {
		xs = append(xs, sim.Time(ms)*sim.Millisecond)
	}
	return Fig6Opts{
		Cfg: tpcc.Config{Warehouses: 24, Districts: 10, Customers: 1500,
			Items: 100, InitOrders: 3000, LinesPerOrder: 1, DataPad: 16, Seed: 42},
		CompileTimes: xs,
	}
}

// Fig6Point is one measurement of one series at one compile time.
type Fig6Point struct {
	Total sim.Time // query arrival → result (includes compile)
	Build sim.Time // execution start → join1 build complete
	Probe sim.Time // join1 build complete → join1 probe complete
	Rows  int64
}

// Fig6Result holds all series, keyed "<placement>/<beam>", in paper
// order, plus the oracle row count.
type Fig6Result struct {
	Labels  []string
	Points  map[string][]Fig6Point
	Compile []sim.Time
	Oracle  int64
}

// fig6Harness runs one query execution.
type fig6Harness struct {
	cl     *core.SimCluster
	qoAC   core.ACID
	plan   *plan.Q3Plan
	doneAt sim.Time
	rows   int64
	marks  map[string]sim.Time
}

func newFig6Harness(db *storage.Database, cfg tpcc.Config, disagg bool) *fig6Harness {
	// The query runs alone on the Figure 2 cluster: no closed loop, the
	// harness's own client instead.
	a := NewAnyDB(db, cfg, sim.DefaultCosts())
	h := &fig6Harness{cl: a.Cl, qoAC: a.Asm.Lay.QO, marks: make(map[string]sim.Time)}
	s1, s2 := a.Cl.Topo.ACs(0), a.Cl.Topo.ACs(1)
	join1, join2 := s1[0], s1[1]
	// Disaggregated: joins on the second server, streams ride DPI flows
	// (NIC as co-processor).
	h.cl.DPI = disagg
	if disagg {
		join1, join2 = s2[0], s2[1]
	}
	parts := make([]int, cfg.Warehouses)
	for i := range parts {
		parts[i] = i
	}
	h.plan = &plan.Q3Plan{
		Query: 1, Parts: parts,
		Join1AC: join1, Join2AC: join2, Notify: core.ClientAC,
	}
	h.cl.SetClient(func(at sim.Time, ev *core.Event) {
		switch p := ev.Payload.(type) {
		case *olap.QueryResult:
			h.rows = p.Rows
			h.doneAt = at
		case *olap.OpDone:
			h.marks[p.Label] = at
		}
	})
	return h
}

func (h *fig6Harness) run(beam plan.BeamMode, compile sim.Time) Fig6Point {
	h.plan.Beam = beam
	h.plan.CompileTime = compile
	h.cl.Inject(h.qoAC, &core.Event{Kind: core.EvQuery, Query: 1, Payload: h.plan}, 0)
	h.cl.Run()
	buildDone := h.marks["join1/build"]
	probeDone := h.marks["join1/probe"]
	return Fig6Point{
		Total: h.doneAt,
		Build: buildDone - compile,
		Probe: probeDone - buildDone,
		Rows:  h.rows,
	}
}

// Figure6 reproduces the paper's Figure 6: query/build/probe runtimes as
// a function of compile time, for no beaming / beam build / beam
// build+probe, each aggregated (local shared-memory queues) and
// disaggregated (network DPI flows).
func Figure6(opts Fig6Opts) Fig6Result {
	db, cfg := tpcc.NewDatabase(opts.Cfg)
	res := Fig6Result{
		Points:  make(map[string][]Fig6Point),
		Compile: opts.CompileTimes,
		Oracle:  tpcc.ReferenceQ3(db, cfg),
	}
	for _, disagg := range []bool{false, true} {
		placement := "aggregated"
		if disagg {
			placement = "disaggregated"
		}
		for _, beam := range []plan.BeamMode{plan.BeamNone, plan.BeamBuild, plan.BeamAll} {
			label := fmt.Sprintf("%s/beam=%s", placement, beam)
			res.Labels = append(res.Labels, label)
			for _, ct := range opts.CompileTimes {
				// A fresh cluster per run (the database is
				// read-only and shared).
				h := newFig6Harness(db, cfg, disagg)
				res.Points[label] = append(res.Points[label], h.run(beam, ct))
			}
		}
	}
	return res
}

// Fig6Series converts one metric of the result into plottable series.
func Fig6Series(r Fig6Result, metric string) []*metrics.Series {
	var out []*metrics.Series
	for _, label := range r.Labels {
		s := &metrics.Series{Label: label}
		for _, p := range r.Points[label] {
			var v sim.Time
			switch metric {
			case "total":
				v = p.Total
			case "build":
				v = p.Build
			case "probe":
				v = p.Probe
			}
			s.Append(float64(v) / float64(sim.Millisecond))
		}
		out = append(out, s)
	}
	return out
}
