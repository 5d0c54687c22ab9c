package olap

import (
	"slices"
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

// work is what one pass of TestMemoWorkCounts cost: chunk evaluations,
// key-filter passes and grouped folds, the virtual time charged, and
// whether the registration rode a cursor.
type work struct {
	evals, keeps, folds int
	charged             sim.Time
	rode                bool
}

// TestMemoWorkCounts counts the chunk work the selection memo and the
// memo's replays leave: a repeated query on unchanged data evaluates no
// chunk and runs no key filter, a write to a filtered column
// re-evaluates exactly its chunk, a write to a column no filter reads
// re-evaluates none (payments keep the customer filters' hits), and an
// insert re-evaluates only the chunk it lands in. A repeated grouped
// pass folds no chunk and rides no cursor; a write to a column it reads
// in one chunk folds every chunk again (the partial is one entry for the
// partition), and leaves a pushdown that does not read that column its
// replay. A hit is charged the virtual time a miss is. A key filter of
// generation 0 is told from the stored one by its bitmap. A pass with no
// filter evaluates nothing, and two registrations of one keyed
// signature in one pass evaluate and probe each chunk once.
func TestMemoWorkCounts(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 3000, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	w := &Worker{DB: db}
	ctx := &chargeSink{flushSink: flushSink{costs: sim.DefaultCosts()}}
	// pass runs one registration of spec to the end, as a new query
	// does, and returns the work it took.
	pass := func(spec *SharedScanSpec) work {
		e0, k0, f0, c0 := w.work.evals, w.work.keeps, w.work.folds, ctx.charged
		reg := *spec
		ev := core.GetEvent()
		ev.Kind, ev.Payload = core.EvInstallOp, &reg
		rode := false
		for ev != nil {
			ctx.resent = nil
			w.OnEvent(ctx, nil, ev)
			ev = ctx.resent
			rode = rode || w.shared[sharedKey{table: spec.Table, part: spec.Part}] != nil
		}
		return work{w.work.evals - e0, w.work.keeps - k0, w.work.folds - f0, ctx.charged - c0, rode}
	}
	want := func(what string, got work, wantEvals, wantKeeps int) {
		t.Helper()
		if got.evals != wantEvals || got.keeps != wantKeeps {
			t.Fatalf("%s: %d chunk evaluations and %d key-filter passes, want %d and %d",
				what, got.evals, got.keeps, wantEvals, wantKeeps)
		}
	}
	wantFolds := func(what string, got work, folds int) {
		t.Helper()
		if got.folds != folds || got.rode != (folds > 0) {
			t.Fatalf("%s: %d chunks folded (rode a cursor: %v), want %d", what, got.folds, got.rode, folds)
		}
	}

	cust := db.Partition(0).TableByID(tpcc.TCustomerID)
	likeFilter := []Predicate{{Col: "c_state", Kind: PredPrefix, Str: tpcc.Q3StatePrefix}}
	like := &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0, Filters: likeFilter,
		Aggs: []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "c_balance"}},
		Out:  7, To: 1, Producers: 1,
	}
	chunks := cust.NumColChunks()
	if chunks < 3 {
		t.Fatalf("%d customer chunks; the test needs several", chunks)
	}
	want("first query", pass(like), chunks, 0)
	want("repeated query", pass(like), 0, 0)
	cust.UpdateAt(1<<storage.ColChunkShift, cust.Schema.MustCol("c_state"), storage.Str("ZZ"))
	want("after a c_state write in chunk 1", pass(like), 1, 0)
	for ci := range chunks {
		cust.UpdateAt(int32(ci<<storage.ColChunkShift), tpcc.ColCBalance, storage.Float(1))
	}
	want("after a c_balance write in every chunk", pass(like), 0, 0)

	orders := keyedOrdersScan(t, db, true)
	ot := db.Partition(0).TableByID(tpcc.TOrdersID)
	ochunks := ot.NumColChunks()
	miss := pass(orders)
	want("first keyed orders scan", miss, ochunks, ochunks)
	hit := pass(orders)
	want("repeated keyed orders scan", hit, 0, 0)
	if hit.charged != miss.charged {
		t.Fatalf("a memo hit charged %v of virtual time, a miss %v", hit.charged, miss.charged)
	}
	// A key filter made by hand, like one decoded from the wire, has
	// generation 0 and is compared word by word. The same bitmap matches
	// the stored signature, which takes its generation 0; then a bitmap
	// one bit short, also of generation 0, is another signature and
	// evaluates every chunk.
	byHand := func(bits []uint64) *SharedScanSpec {
		spec := *orders
		spec.Keys = &KeyFilter{Cols: orders.Keys.Cols, Lo: orders.Keys.Lo, Span: orders.Keys.Span, Bits: bits}
		return &spec
	}
	want("a generation-0 key filter with the same bitmap", pass(byHand(orders.Keys.Bits)), 0, 0)
	bits := slices.Clone(orders.Keys.Bits)
	i := slices.IndexFunc(bits, func(w uint64) bool { return w != 0 })
	bits[i] &= bits[i] - 1 // clear the lowest set bit
	want("a generation-0 key filter one bit short", pass(byHand(bits)), ochunks, ochunks)
	oid := int64(cfg.InitOrders + 1)
	if _, err := ot.Insert(tpcc.OrderKey(0, 1, oid), storage.Row{storage.Int(0), storage.Int(1),
		storage.Int(oid), storage.Int(1), storage.Int(tpcc.Q3SinceYear), storage.Int(0), storage.Int(5)}); err != nil {
		t.Fatal(err)
	}
	want("after an orders insert", pass(orders), 1, 1)

	// The grouped pass has no filter: it gets the empty-filter signature,
	// whose selection is the identity, and folds every chunk once.
	group := &SharedScanSpec{
		Query: 2, Table: tpcc.TCustomerID, Part: 0,
		GroupBy: []string{"c_state"}, Aggs: []AggExpr{{Fn: AggCount}}, DictGroups: true,
		Out: 8, To: 1, Producers: 1,
	}
	custKey := sharedKey{table: tpcc.TCustomerID, part: 0}
	sigs := len(w.memos[custKey])
	miss = pass(group)
	want("an unfiltered grouped pass", miss, 0, 0)
	wantFolds("the first grouped pass", miss, chunks)
	if n := len(w.memos[custKey]); n != sigs+1 {
		t.Fatalf("an unfiltered grouped pass left %d customer signatures, want %d", n, sigs+1)
	}
	hit = pass(group)
	wantFolds("a repeated grouped pass", hit, 0)
	if hit.charged != miss.charged {
		t.Fatalf("a replayed partial charged %v of virtual time, its pass %v", hit.charged, miss.charged)
	}

	// A c_balance write in one chunk: a grouped SUM(c_balance) folds
	// every chunk again, not just that one (the partial is one entry for
	// the partition), while the grouped COUNT(*) and a LIKE count, which
	// read no c_balance, replay.
	sum := *group
	sum.Aggs = []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "c_balance"}}
	countLike := &SharedScanSpec{
		Query: 3, Table: tpcc.TCustomerID, Part: 0, Filters: likeFilter,
		Aggs: []AggExpr{{Fn: AggCount}}, Out: 9, To: 1, Producers: 1,
	}
	wantFolds("the first grouped SUM(c_balance) pass", pass(&sum), chunks)
	wantFolds("the first LIKE count", pass(countLike), chunks)
	cust.UpdateAt(1<<storage.ColChunkShift, tpcc.ColCBalance, storage.Float(2))
	wantFolds("a grouped SUM(c_balance) pass after a c_balance write in chunk 1", pass(&sum), chunks)
	wantFolds("a grouped COUNT(*) pass after the c_balance write", pass(group), 0)
	wantFolds("a LIKE count after the c_balance write", pass(countLike), 0)

	// Both registrations attach before the first step, so they ride one
	// pass in lockstep: the first evaluates each chunk, the second hits.
	for ci := range ochunks {
		ot.UpdateAt(int32(ci<<storage.ColChunkShift), ot.Schema.MustCol("o_entry_d"), storage.Int(tpcc.Q3SinceYear))
	}
	e0, k0 := w.work.evals, w.work.keeps
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
	want("two keyed registrations in one pass after an o_entry_d write", work{evals: w.work.evals - e0, keeps: w.work.keeps - k0}, ochunks, ochunks)
}

// TestMemoStoresLargePartial checks that the streaming caps leave a
// pushdown alone: a partition partial of more than CollectCap groups is
// stored, and the second registration replays it without folding a
// chunk.
func TestMemoStoresLargePartial(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 6, Customers: 3000,
		Items: 10, InitOrders: 10, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	w := &Worker{DB: db}
	ctx := &flushSink{costs: sim.DefaultCosts()}
	spec := &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0,
		GroupBy: []string{"c_d_id", "c_id"}, Aggs: []AggExpr{{Fn: AggCount}},
		Out: 7, To: 1, Producers: 1,
	}
	// pass runs one registration of spec to the end and returns the
	// chunks it folded and the partial rows it sent.
	pass := func() (folds int, rows int64) {
		f0, r0 := w.work.folds, ctx.rows
		reg := *spec
		ev := core.GetEvent()
		ev.Kind, ev.Payload = core.EvInstallOp, &reg
		for ev != nil {
			ctx.resent = nil
			w.OnEvent(ctx, nil, ev)
			ev = ctx.resent
		}
		return w.work.folds - f0, ctx.rows - r0
	}
	groups := int64(cfg.Districts * cfg.Customers)
	if groups <= CollectCap {
		t.Fatalf("%d groups; the test needs more than CollectCap (%d)", groups, CollectCap)
	}
	if folds, rows := pass(); folds == 0 || rows != groups {
		t.Fatalf("first pass: %d chunks folded and %d partial rows, want every chunk and %d", folds, rows, groups)
	}
	if folds, rows := pass(); folds != 0 || rows != groups {
		t.Fatalf("second pass: %d chunks folded and %d partial rows, want a replay (0) of %d", folds, rows, groups)
	}
	w.Release()
	if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
		t.Fatalf("pooled objects outstanding after Release: %s", core.PoolBalanceString())
	}
}

// TestMemoKeepsLongStreams checks the one stop rule on a streaming
// scan: a pass of more than 16 batches and 16 384 rows is kept and
// replays, while a pass one batch past maxKept keeps nothing, so the
// next registration of its shape rides the cursor again. Release then
// leaves no pooled object.
func TestMemoKeepsLongStreams(t *testing.T) {
	core.TrackPools(true)
	t.Cleanup(func() { core.TrackPools(false) })
	cfg := tpcc.Config{Warehouses: 1, Districts: 22, Customers: 3000,
		Items: 10, InitOrders: 10, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	w := &Worker{DB: db}
	ctx := &flushSink{costs: sim.DefaultCosts()}
	// pass runs one registration of spec to the end and returns the rows
	// it gathered, the batches it sent, and whether it rode the cursor.
	pass := func(spec *SharedScanSpec) (gathered int, batches int64, rode bool) {
		g0, b0 := w.work.gathered, ctx.batches
		reg := *spec
		ev := core.GetEvent()
		ev.Kind, ev.Payload = core.EvInstallOp, &reg
		for ev != nil {
			ctx.resent = nil
			w.OnEvent(ctx, nil, ev)
			ev = ctx.resent
			rode = rode || w.shared[sharedKey{table: spec.Table, part: spec.Part}] != nil
		}
		return w.work.gathered - g0, ctx.batches - b0, rode
	}
	stream := func(filters ...Predicate) *SharedScanSpec {
		return &SharedScanSpec{Query: 1, Table: tpcc.TCustomerID, Part: 0, Filters: filters,
			Cols: []string{"c_w_id", "c_d_id", "c_id"}, Out: 7, To: 1, Producers: 1}
	}

	long := stream(Predicate{Col: "c_d_id", Kind: PredIn, Lo: 1, Hi: 6})
	rows := 6 * cfg.Customers
	if rows <= CollectCap || (rows+DefaultBatchRows-1)/DefaultBatchRows <= 16 {
		t.Fatalf("%d rows; the test needs more than 16 batches and %d rows", rows, CollectCap)
	}
	if g, b, _ := pass(long); g != rows || b != int64((rows+DefaultBatchRows-1)/DefaultBatchRows) {
		t.Fatalf("first long pass: %d rows gathered in %d batches, want %d", g, b, rows)
	}
	if len(w.kept) != 1 {
		t.Fatalf("a pass of %d rows kept %d records, want 1", rows, len(w.kept))
	}
	if g, _, rode := pass(long); g != 0 || rode {
		t.Fatalf("second long pass: %d rows gathered (rode a cursor: %v), want a replay", g, rode)
	}

	all := stream()
	rows = cfg.Districts * cfg.Customers
	if (rows+DefaultBatchRows-1)/DefaultBatchRows != maxKept+1 {
		t.Fatalf("%d rows; the test needs a pass of exactly maxKept+1 (%d) batches", rows, maxKept+1)
	}
	for i := range 2 {
		if g, b, rode := pass(all); g != rows || b != maxKept+1 || !rode {
			t.Fatalf("pass %d over every customer: %d rows in %d batches (rode a cursor: %v), want %d in %d, scanned",
				i, g, b, rode, rows, maxKept+1)
		}
		if len(w.kept) != 1 {
			t.Fatalf("a pass of maxKept+1 batches left %d records, want the long pass's 1", len(w.kept))
		}
	}
	w.Release()
	if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
		t.Fatalf("pooled objects outstanding after Release: %s", core.PoolBalanceString())
	}
}
