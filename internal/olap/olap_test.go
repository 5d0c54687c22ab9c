package olap_test

import (
	"testing"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/plan"
	"anydb/internal/sim"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

func testCfg() tpcc.Config {
	return tpcc.Config{Warehouses: 4, Districts: 2, Customers: 120,
		Items: 40, InitOrders: 120, Seed: 3}.WithDefaults()
}

// q3Plan compiles the paper's query (tpcc.Q3SQL) through the SQL planner
// over every partition: join1 on join1AC, join2 and the sink on join2AC.
func q3Plan(t testing.TB, db *storage.Database, qid core.QueryID, join1AC, join2AC core.ACID) *plan.GenericPlan {
	t.Helper()
	q, err := sql.Parse(tpcc.Q3SQL)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int, db.NumPartitions())
	for i := range parts {
		parts[i] = i
	}
	p, err := plan.CompileSQL(db.Catalog, q, qid, parts, []core.ACID{join1AC, join2AC}, core.ClientAC)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// resultCount reads a COUNT(*) result and recycles its batches.
func resultCount(res *olap.QueryResult) int64 {
	n := res.Batches[0].Value(0, 0).I
	for _, b := range res.Batches {
		storage.FreeBatch(b)
	}
	return n
}

// harness wires storage owners on server 1 and join ACs either on server
// 1 (aggregated) or server 2 (disaggregated).
type harness struct {
	cl     *core.SimCluster
	qoAC   core.ACID
	plan   *plan.GenericPlan
	rows   int64
	doneAt sim.Time
	events map[string]sim.Time // OpDone label -> time
}

func build(t *testing.T, db *storage.Database, cfg tpcc.Config, disagg bool, dpi bool) *harness {
	topo := core.NewTopology(db)
	s1 := topo.AddServer(4)
	s2 := topo.AddServer(4)
	for w := 0; w < cfg.Warehouses; w++ {
		topo.SetOwner(w, s1[w%4])
	}
	h := &harness{events: make(map[string]sim.Time)}
	qo := &plan.QO{Topo: topo}
	h.cl = core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		ac.Register(core.EvInstallOp, &olap.Worker{DB: db})
		ac.Register(core.EvQuery, qo)
	})
	h.cl.DPI = dpi
	join1, join2 := s1[0], s1[1]
	if disagg {
		join1, join2 = s2[0], s2[1]
	}
	h.qoAC = s2[3]
	h.plan = q3Plan(t, db, 1, join1, join2)
	h.plan.CompileTime = 2 * sim.Millisecond
	h.plan.NotifyJoins(core.ClientAC)
	h.cl.SetClient(func(at sim.Time, ev *core.Event) {
		switch p := ev.Payload.(type) {
		case *olap.QueryResult:
			h.rows = resultCount(p)
			h.doneAt = at
		case *olap.OpDone:
			h.events[p.Label] = at
		}
	})
	return h
}

func (h *harness) run(beam plan.BeamMode) {
	h.plan.Beam = beam
	h.cl.Inject(h.qoAC, &core.Event{Kind: core.EvQuery, Query: 1, Payload: h.plan}, 0)
	h.cl.Run()
}

func TestQ3CorrectAllModes(t *testing.T) {
	cfg := testCfg()
	for _, disagg := range []bool{false, true} {
		for _, dpi := range []bool{false, true} {
			for _, beam := range []plan.BeamMode{plan.BeamNone, plan.BeamBuild, plan.BeamAll} {
				db, _ := tpcc.NewDatabase(cfg)
				want := tpcc.ReferenceQ3(db, cfg)
				if want == 0 {
					t.Fatal("oracle returned 0 rows; enlarge the dataset")
				}
				h := build(t, db, cfg, disagg, dpi)
				h.run(beam)
				if h.rows != want {
					t.Fatalf("disagg=%v dpi=%v beam=%v: rows=%d want=%d",
						disagg, dpi, beam, h.rows, want)
				}
				if h.doneAt <= h.plan.CompileTime {
					t.Fatalf("query finished before compile time: %v", h.doneAt)
				}
				if h.events["join1/build"] == 0 || h.events["join1/probe"] == 0 ||
					h.events["join2/probe"] == 0 {
					t.Fatalf("missing op instrumentation: %v", h.events)
				}
				if h.events["join1/build"] > h.events["join1/probe"] {
					t.Fatal("probe finished before build")
				}
			}
		}
	}
}

// TestBeamingHidesTransfer is Figure 6's core claim in miniature: with
// full beaming the query completes sooner than without, because base
// table data transfers overlap the compile window.
func TestBeamingHidesTransfer(t *testing.T) {
	cfg := testCfg()
	times := make(map[plan.BeamMode]sim.Time)
	for _, beam := range []plan.BeamMode{plan.BeamNone, plan.BeamBuild, plan.BeamAll} {
		db, _ := tpcc.NewDatabase(cfg)
		h := build(t, db, cfg, true, true)
		h.plan.CompileTime = 5 * sim.Millisecond
		h.run(beam)
		times[beam] = h.doneAt
	}
	if times[plan.BeamAll] >= times[plan.BeamNone] {
		t.Fatalf("beam all (%v) not faster than none (%v)",
			times[plan.BeamAll], times[plan.BeamNone])
	}
	if times[plan.BeamBuild] > times[plan.BeamNone] {
		t.Fatalf("beam build (%v) slower than none (%v)",
			times[plan.BeamBuild], times[plan.BeamNone])
	}
}

// TestBeamedBuildFinishesEarly: with build beaming and a generous compile
// window, the build side should complete (almost) immediately after
// execution starts — the "build runtime ≈ 0" effect of Figure 6(b).
func TestBeamedBuildFinishesEarly(t *testing.T) {
	cfg := testCfg()
	compile := 10 * sim.Millisecond

	db1, _ := tpcc.NewDatabase(cfg)
	h1 := build(t, db1, cfg, true, true)
	h1.plan.CompileTime = compile
	h1.run(plan.BeamNone)
	noBeam := h1.events["join1/build"] - compile

	db2, _ := tpcc.NewDatabase(cfg)
	h2 := build(t, db2, cfg, true, true)
	h2.plan.CompileTime = compile
	h2.run(plan.BeamBuild)
	beamed := h2.events["join1/build"] - compile

	if beamed >= noBeam {
		t.Fatalf("beamed build runtime (%v) not shorter than unbeamed (%v)", beamed, noBeam)
	}
	if beamed > noBeam/2 {
		t.Fatalf("beamed build runtime %v should be well under unbeamed %v", beamed, noBeam)
	}
}

func TestBeamModeString(t *testing.T) {
	if plan.BeamNone.String() != "none" || plan.BeamAll.String() != "build+probe" {
		t.Fatal("beam names")
	}
}
