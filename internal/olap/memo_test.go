package olap

import (
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// chargeSink is a flushSink that sums the virtual time charged to it.
type chargeSink struct {
	flushSink
	charged sim.Time
}

func (c *chargeSink) Charge(t sim.Time) { c.charged += t }

// TestMemoWorkCounts counts the chunk work the selection memo leaves: a
// repeated query on unchanged data evaluates no chunk and runs no key
// filter, a write to a filtered column re-evaluates exactly its chunk, a
// write to a column no filter reads re-evaluates none (payments keep
// the customer filters' hits), and an insert re-evaluates only the chunk
// it lands in. A hit is charged the virtual time a miss is. A pass with
// no filter evaluates nothing and adds no signature, and two
// registrations of one keyed signature in one pass evaluate and probe
// each chunk once.
func TestMemoWorkCounts(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 3000, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	w := &Worker{DB: db}
	ctx := &chargeSink{flushSink: flushSink{costs: sim.DefaultCosts()}}
	// pass runs one registration of spec to the end, as a new query
	// does, and returns the work and the virtual time it took.
	pass := func(spec *SharedScanSpec) (evals, keeps int, charged sim.Time) {
		e0, k0, c0 := w.evals, w.keeps, ctx.charged
		reg := *spec
		ev := core.GetEvent()
		ev.Kind, ev.Payload = core.EvInstallOp, &reg
		for ev != nil {
			ctx.resent = nil
			w.OnEvent(ctx, nil, ev)
			ev = ctx.resent
		}
		return w.evals - e0, w.keeps - k0, ctx.charged - c0
	}
	want := func(what string, evals, keeps, wantEvals, wantKeeps int) {
		t.Helper()
		if evals != wantEvals || keeps != wantKeeps {
			t.Fatalf("%s: %d chunk evaluations and %d key-filter passes, want %d and %d",
				what, evals, keeps, wantEvals, wantKeeps)
		}
	}

	cust := db.Partition(0).TableByID(tpcc.TCustomerID)
	like := &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0,
		Filters: []Predicate{{Col: "c_state", Kind: PredPrefix, Str: tpcc.Q3StatePrefix}},
		Aggs:    []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "c_balance"}},
		Out:     7, To: 1, Producers: 1,
	}
	chunks := cust.NumColChunks()
	if chunks < 3 {
		t.Fatalf("%d customer chunks; the test needs several", chunks)
	}
	e, k, _ := pass(like)
	want("first query", e, k, chunks, 0)
	e, k, _ = pass(like)
	want("repeated query", e, k, 0, 0)
	cust.UpdateAt(1<<storage.ColChunkShift, cust.Schema.MustCol("c_state"), storage.Str("ZZ"))
	e, k, _ = pass(like)
	want("after a c_state write in chunk 1", e, k, 1, 0)
	for ci := range chunks {
		cust.UpdateAt(int32(ci<<storage.ColChunkShift), tpcc.ColCBalance, storage.Float(1))
	}
	e, k, _ = pass(like)
	want("after a c_balance write in every chunk", e, k, 0, 0)

	orders := keyedOrdersScan(t, db, true)
	ot := db.Partition(0).TableByID(tpcc.TOrdersID)
	ochunks := ot.NumColChunks()
	e, k, miss := pass(orders)
	want("first keyed orders scan", e, k, ochunks, ochunks)
	e, k, hit := pass(orders)
	want("repeated keyed orders scan", e, k, 0, 0)
	if hit != miss {
		t.Fatalf("a memo hit charged %v of virtual time, a miss %v", hit, miss)
	}
	oid := int64(cfg.InitOrders + 1)
	if _, err := ot.Insert(tpcc.OrderKey(0, 1, oid), storage.Row{storage.Int(0), storage.Int(1),
		storage.Int(oid), storage.Int(1), storage.Int(tpcc.Q3SinceYear), storage.Int(0), storage.Int(5)}); err != nil {
		t.Fatal(err)
	}
	e, k, _ = pass(orders)
	want("after an orders insert", e, k, 1, 1)

	group := &SharedScanSpec{
		Query: 2, Table: tpcc.TCustomerID, Part: 0,
		GroupBy: []string{"c_state"}, Aggs: []AggExpr{{Fn: AggCount}}, DictGroups: true,
		Out: 8, To: 1, Producers: 1,
	}
	sigs := len(w.memos[sharedKey{table: tpcc.TCustomerID, part: 0}])
	e, k, _ = pass(group)
	want("an unfiltered grouped pass", e, k, 0, 0)
	if n := len(w.memos[sharedKey{table: tpcc.TCustomerID, part: 0}]); n != sigs {
		t.Fatalf("an unfiltered pass left %d customer signatures, want %d", n, sigs)
	}

	// Both registrations attach before the first step, so they ride one
	// pass in lockstep: the first evaluates each chunk, the second hits.
	for ci := range ochunks {
		ot.UpdateAt(int32(ci<<storage.ColChunkShift), ot.Schema.MustCol("o_entry_d"), storage.Int(tpcc.Q3SinceYear))
	}
	e0, k0 := w.evals, w.keeps
	ctx.resent = nil
	for _, q := range []core.QueryID{3, 4} {
		reg := *orders
		reg.Query = q
		ev := core.GetEvent()
		ev.Kind, ev.Payload = core.EvInstallOp, &reg
		w.OnEvent(ctx, nil, ev)
	}
	for ev := ctx.resent; ev != nil; ev = ctx.resent {
		ctx.resent = nil
		w.OnEvent(ctx, nil, ev)
	}
	want("two keyed registrations in one pass after an o_entry_d write", w.evals-e0, w.keeps-k0, ochunks, ochunks)
}
