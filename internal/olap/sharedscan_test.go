package olap_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// sharedCfg sizes the customer table to span multiple columnar chunks
// per partition (2 districts × 1200 > ColChunkRows), so registrations
// can attach mid-pass and exercise the wrap-around window.
func sharedCfg() tpcc.Config {
	return tpcc.Config{Warehouses: 2, Districts: 2, Customers: 1200,
		Items: 10, InitOrders: 10, Seed: 5}.WithDefaults()
}

// sharedHarness drives raw SharedScanSpec/SinkSpec installs (no SQL, no
// planner) on a sim cluster.
type sharedHarness struct {
	cl      *core.SimCluster
	topo    *core.Topology
	db      *storage.Database
	cfg     tpcc.Config
	sinkAC  core.ACID
	results map[core.QueryID]*olap.QueryResult
	doneAt  map[core.QueryID]sim.Time
}

func newSharedHarness(t *testing.T) *sharedHarness {
	t.Helper()
	cfg := sharedCfg()
	db, _ := tpcc.NewDatabase(cfg)
	topo := core.NewTopology(db)
	s1 := topo.AddServer(4)
	s2 := topo.AddServer(4)
	for w := 0; w < cfg.Warehouses; w++ {
		topo.SetOwner(w, s1[w%4])
	}
	h := &sharedHarness{
		topo: topo, db: db, cfg: cfg, sinkAC: s2[0],
		results: make(map[core.QueryID]*olap.QueryResult),
		doneAt:  make(map[core.QueryID]sim.Time),
	}
	h.cl = core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		ac.Register(core.EvInstallOp, &olap.Worker{DB: db})
	})
	h.cl.SetClient(func(at sim.Time, ev *core.Event) {
		if r, ok := ev.Payload.(*olap.QueryResult); ok {
			h.results[r.Query] = r
			h.doneAt[r.Query] = at
		}
	})
	return h
}

// installCount registers a global COUNT(*) over the customer table for
// qid at sim time at: one shared-scan registration per partition plus
// the merging sink.
func (h *sharedHarness) installCount(qid core.QueryID, at sim.Time) {
	out := core.StreamID(uint64(qid) * 64)
	aggs := []olap.AggExpr{{Fn: olap.AggCount}}
	for w := 0; w < h.cfg.Warehouses; w++ {
		h.cl.Inject(h.topo.Owner(w), &core.Event{
			Kind: core.EvInstallOp, Query: qid,
			Payload: &olap.SharedScanSpec{
				Query: qid, Table: tpcc.TCustomerID, Part: w,
				Aggs: aggs, Out: out, To: h.sinkAC, Producers: h.cfg.Warehouses,
			},
		}, at)
	}
	h.cl.Inject(h.sinkAC, &core.Event{
		Kind: core.EvInstallOp, Query: qid,
		Payload: &olap.SinkSpec{
			Query: qid, In: out, Aggs: aggs, MergePartials: true,
			OutCols: []string{"count"}, OutKinds: []storage.Kind{storage.KInt},
			OutSrc: []int{0}, Limit: -1, Notify: core.ClientAC,
		},
	}, at)
}

func (h *sharedHarness) countOf(t *testing.T, qid core.QueryID) int64 {
	t.Helper()
	res := h.results[qid]
	if res == nil {
		t.Fatalf("query %d: no result", qid)
	}
	if res.Rows != 1 || len(res.Batches) != 1 || res.Batches[0].Len() != 1 {
		t.Fatalf("query %d: result shape %+v", qid, res)
	}
	return res.Batches[0].Value(0, 0).I
}

// TestSharedScanMidPassAttach: a second query attaching while the first
// pass is between chunks joins the in-flight cursor, scans the remaining
// chunks, wraps to the start, and still counts every row exactly once.
func TestSharedScanMidPassAttach(t *testing.T) {
	h := newSharedHarness(t)
	want := int64(h.cfg.Warehouses) * int64(h.cfg.Districts) * int64(h.cfg.Customers)
	h.installCount(1, 0)
	// One chunk costs ≈ ColChunkRows×(ScanRow+AggRow) ≈ 29µs; inject
	// mid-pass, after chunk 0 and before the 2-chunk pass completes.
	h.installCount(2, 30*sim.Microsecond)
	h.cl.Run()
	if got := h.countOf(t, 1); got != want {
		t.Fatalf("query 1 count = %d, want %d", got, want)
	}
	if got := h.countOf(t, 2); got != want {
		t.Fatalf("query 2 (mid-pass attach) count = %d, want %d", got, want)
	}
	if h.doneAt[2] <= h.doneAt[1] {
		// Query 2 joined later and must finish after query 1 — wrapping
		// past the point it attached at, not piggybacking on 1's result.
		t.Fatalf("doneAt: q2 %v <= q1 %v", h.doneAt[2], h.doneAt[1])
	}
}

// TestSharedScanAmortizesCursor: N concurrent registrations ride one
// cursor pass, so the makespan grows by per-registration fold costs
// only — far slower than N separate passes would.
func TestSharedScanAmortizesCursor(t *testing.T) {
	solo := newSharedHarness(t)
	solo.installCount(1, 0)
	solo.cl.Run()
	tSolo := solo.doneAt[1]

	shared := newSharedHarness(t)
	const n = 8
	for q := core.QueryID(1); q <= n; q++ {
		shared.installCount(q, 0)
	}
	shared.cl.Run()
	want := int64(shared.cfg.Warehouses) * int64(shared.cfg.Districts) * int64(shared.cfg.Customers)
	var tLast sim.Time
	for q := core.QueryID(1); q <= n; q++ {
		if got := shared.countOf(t, q); got != want {
			t.Fatalf("query %d count = %d, want %d", q, got, want)
		}
		if at := shared.doneAt[q]; at > tLast {
			tLast = at
		}
	}
	// Unshared, 8 passes would cost ≈ 8× the solo makespan. Shared, the
	// ScanRow cursor cost is charged once per chunk while each
	// registration still pays its own per-row fold, so the fleet must
	// land measurably under the 8× unshared estimate.
	if tLast >= 6*tSolo {
		t.Fatalf("8 shared queries took %v, solo %v — cursor not amortized", tLast, tSolo)
	}
}

// TestSharedScanStreamingAttach: streaming (projection) registrations
// share the cursor too, each keeping private filters and batches.
func TestSharedScanStreamingAttach(t *testing.T) {
	h := newSharedHarness(t)
	// Query 1 projects district-1 customers, query 2 district-2, both
	// into collect sinks, installed together so they share the pass.
	for qid, dist := range map[core.QueryID]int64{1: 1, 2: 2} {
		out := core.StreamID(uint64(qid) * 64)
		for w := 0; w < h.cfg.Warehouses; w++ {
			h.cl.Inject(h.topo.Owner(w), &core.Event{
				Kind: core.EvInstallOp, Query: qid,
				Payload: &olap.SharedScanSpec{
					Query: qid, Table: tpcc.TCustomerID, Part: w,
					Filters: []olap.Predicate{{Col: "c_d_id", Kind: olap.PredIn, Lo: dist, Hi: dist}},
					Cols:    []string{"c_id", "c_d_id"},
					Out:     out, To: h.sinkAC, Producers: h.cfg.Warehouses,
				},
			}, 0)
		}
		h.cl.Inject(h.sinkAC, &core.Event{
			Kind: core.EvInstallOp, Query: qid,
			Payload: &olap.SinkSpec{
				Query: qid, In: out, Cols: []string{"c_id", "c_d_id"},
				OutCols:  []string{"c_id", "c_d_id"},
				OutKinds: []storage.Kind{storage.KInt, storage.KInt},
				Limit:    -1, Notify: core.ClientAC,
			},
		}, 0)
	}
	h.cl.Run()
	wantPer := int64(h.cfg.Warehouses) * int64(h.cfg.Customers)
	for qid, dist := range map[core.QueryID]int64{1: 1, 2: 2} {
		res := h.results[qid]
		if res == nil {
			t.Fatalf("query %d: no result", qid)
		}
		if res.Rows != wantPer {
			t.Fatalf("query %d rows = %d, want %d", qid, res.Rows, wantPer)
		}
		for _, b := range res.Batches {
			for r := 0; r < b.Len(); r++ {
				if b.Value(r, 1).I != dist {
					t.Fatalf("query %d leaked row from district %d", qid, b.Value(r, 1).I)
				}
			}
		}
	}
}

// TestSharedScanRawPredicates covers the predicate modes that run on
// unencoded chunk columns, and the range edges on every int encoding:
// an int column n that overflows the int dictionary and spans more than
// 2³² per chunk (so frame-of-reference does not apply either), a string
// column s with more distinct values than the string dictionary holds
// (it seals, and the chunks after it stay raw), and an int column g
// that is a dictionary in chunks 0–31 and frame-of-reference in 32–34
// once its 1 024-code dictionary seals. Each predicate's shared-scan
// COUNT(*) must equal a hand filter of the same rows; the edge cases
// marked whole select every row or none by design.
func TestSharedScanRawPredicates(t *testing.T) {
	db := storage.NewDatabase(1, storage.NewSchema("wide",
		storage.Column{Name: "n", Kind: storage.KInt},
		storage.Column{Name: "s", Kind: storage.KStr},
		storage.Column{Name: "g", Kind: storage.KInt}))
	tab := db.Partition(0).Table("wide")
	const rows = 1<<16 + 3*storage.ColChunkRows
	for i := 0; i < rows; i++ {
		tab.Append(storage.Row{storage.Int(int64(i) << 33), storage.Str(fmt.Sprintf("k%06d", i)), storage.Int(int64(i / 64))})
	}
	topo := core.NewTopology(db)
	ids := topo.AddServer(4)
	topo.SetOwner(0, ids[0])
	got := make(map[core.QueryID]int64)
	cl := core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		ac.Register(core.EvInstallOp, &olap.Worker{DB: db})
	})
	cl.SetClient(func(_ sim.Time, ev *core.Event) {
		if r, ok := ev.Payload.(*olap.QueryResult); ok {
			got[r.Query] = resultCount(r)
		}
	})

	const pivot = 5000 << 33
	// g's chunk k holds 32k..32k+31; chunk 32 is the first frame-of-reference one.
	const forMin, forMax = 32 * 32, 35*32 - 1
	in := func(col string, lo, hi int64) olap.Predicate {
		return olap.Predicate{Col: col, Kind: olap.PredIn, Lo: lo, Hi: hi}
	}
	out := func(col string, lo, hi int64) olap.Predicate {
		return olap.Predicate{Col: col, Kind: olap.PredOut, Lo: lo, Hi: hi}
	}
	cases := []struct {
		p     olap.Predicate
		whole bool
	}{
		{p: in("n", pivot, math.MaxInt64)},
		{p: in("n", math.MinInt64, pivot-1)},
		{p: in("n", pivot, pivot)},
		{p: out("n", pivot, pivot)},
		{p: olap.Predicate{Col: "s", Kind: olap.PredEqStr, Str: fmt.Sprintf("k%06d", rows-1)}},
		{p: olap.Predicate{Col: "s", Kind: olap.PredPrefix, Str: "k06"}}, // spans dictionary and raw chunks
		{p: in("g", forMin+32, forMin+32)},                               // a frame-of-reference chunk's minimum
		{p: out("g", forMin+32, forMin+32)},                              // ... and its complement
		{p: in("g", 5*32, 5*32)},                                         // a dictionary chunk's minimum
		{p: in("g", 100, 1500)},                                          // dictionary bitset, frame-of-reference delta range
		{p: out("g", 100, 1500)},                                         // ... and its complement
		{p: in("g", math.MinInt64, forMin+31)},                           // ends just below chunk 33
		{p: in("g", forMin+32, math.MaxInt64)},                           // starts just above chunk 32
		{p: in("g", forMax+1, math.MaxInt64), whole: true},               // starts just above the last chunk
		{p: in("g", forMin+1<<32, math.MaxInt64), whole: true},           // starts past chunk 32's delta domain
		{p: in("g", math.MinInt64, math.MaxInt64), whole: true},
		{p: out("g", math.MinInt64, math.MaxInt64), whole: true},
		{p: in("g", 1, 0), whole: true}, // the empty range
		{p: out("g", 1, 0), whole: true},
		{p: in("g", -5, -5), whole: true}, // absent from the dictionary
		{p: out("g", -5, -5), whole: true},
		{p: olap.Predicate{Col: "s", Kind: olap.PredEqStr, Str: "absent"}, whole: true},
	}
	aggs := []olap.AggExpr{{Fn: olap.AggCount}}
	for i, c := range cases {
		qid := core.QueryID(i + 1)
		out := core.StreamID(uint64(qid) * 64)
		cl.Inject(ids[0], &core.Event{Kind: core.EvInstallOp, Query: qid, Payload: &olap.SharedScanSpec{
			Query: qid, Table: tab.Schema.ID, Part: 0, Filters: []olap.Predicate{c.p},
			Aggs: aggs, Out: out, To: ids[1], Producers: 1,
		}}, 0)
		cl.Inject(ids[1], &core.Event{Kind: core.EvInstallOp, Query: qid, Payload: &olap.SinkSpec{
			Query: qid, In: out, Aggs: aggs, MergePartials: true,
			OutCols: []string{"count"}, OutKinds: []storage.Kind{storage.KInt},
			OutSrc: []int{0}, Limit: -1, Notify: core.ClientAC,
		}}, 0)
	}
	cl.Run()

	for ci, want := range map[int][3]storage.EncKind{
		0:                      {storage.EncRaw, storage.EncDict, storage.EncDict},
		31:                     {storage.EncRaw, storage.EncDict, storage.EncDict},
		32:                     {storage.EncRaw, storage.EncRaw, storage.EncFoR},
		tab.NumColChunks() - 1: {storage.EncRaw, storage.EncRaw, storage.EncFoR},
	} {
		chunk := tab.ColChunk(ci)
		if g := [3]storage.EncKind{chunk.Cols[0].Enc, chunk.Cols[1].Enc, chunk.Cols[2].Enc}; g != want {
			t.Fatalf("chunk %d encodings = %v, want %v", ci, g, want)
		}
	}
	for i, c := range cases {
		p := c.p
		var want int64
		tab.Scan(func(_ int32, r storage.Row) bool {
			x, s := r[0].I, r[1].S
			if p.Col == "g" {
				x = r[2].I
			}
			switch p.Kind {
			case olap.PredIn:
				want += b2i(p.Lo <= x && x <= p.Hi)
			case olap.PredOut:
				want += b2i(x < p.Lo || x > p.Hi)
			case olap.PredEqStr:
				want += b2i(s == p.Str)
			case olap.PredPrefix:
				want += b2i(strings.HasPrefix(s, p.Str))
			}
			return true
		})
		if degenerate := want == 0 || want == rows; degenerate != c.whole {
			t.Fatalf("predicate %+v: oracle count %d of %d rows, whole = %v", p, want, rows, c.whole)
		}
		if g := got[core.QueryID(i+1)]; g != want {
			t.Errorf("predicate %+v: count = %d, want %d", p, g, want)
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
