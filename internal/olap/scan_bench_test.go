package olap

import (
	"math"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// flushSink is a stub core.Context standing in for the runtime on the
// scan hot path: it plays the single consumer of the emitted stream,
// recycling each batch and envelope at their death points exactly like
// the real consumers (joins, sinks) do.
type flushSink struct {
	costs   sim.CostModel
	resent  *core.Event
	batches int64
	rows    int64
}

func (c *flushSink) Self() core.ACID          { return 0 }
func (c *flushSink) Now() sim.Time            { return 0 }
func (c *flushSink) Charge(sim.Time)          {}
func (c *flushSink) Costs() *sim.CostModel    { return &c.costs }
func (c *flushSink) Topology() *core.Topology { return nil }
func (c *flushSink) Offloaded(core.ACID) bool { return true }
func (c *flushSink) Send(_ core.ACID, ev *core.Event) {
	c.resent = ev // the cursor re-enqueueing its driver continuation
}
func (c *flushSink) SendData(_ core.ACID, msg *core.DataMsg) {
	if msg.Batch != nil {
		c.batches++
		c.rows += int64(msg.Batch.Len())
		storage.FreeBatch(msg.Batch)
	}
	core.FreeDataMsg(msg)
}

// BenchmarkScanFlush measures the steady-state allocation cost of the
// analytical scan's production path: one op is one full pass of a
// streaming SharedScanSpec registration over a customer partition —
// decode and project every encoded chunk, several batch flushes, EOS.
// With the batch and data-message pools, a pass must show zero
// steady-state allocations: the out batch recycles through the consumer
// and back.
//
//	go test -bench ScanFlush -benchmem ./internal/olap
func BenchmarkScanFlush(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 10, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	benchScanPasses(b, db, &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0,
		Cols: []string{"c_w_id", "c_d_id", "c_id"},
		Out:  7, To: 1, Producers: 1,
	})
}

// BenchmarkFilteredScan is BenchmarkScanFlush under the filters of a
// top-N customer query, c_d_id = 1 AND c_id <= 400: a dictionary code
// range and a frame-of-reference delta range narrow each chunk before
// the gather. A pass must show zero steady-state allocations.
//
//	go test -bench FilteredScan -benchmem ./internal/olap
func BenchmarkFilteredScan(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 10, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	benchScanPasses(b, db, &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0,
		Filters: []Predicate{
			{Col: "c_d_id", Kind: PredIn, Lo: 1, Hi: 1},
			{Col: "c_id", Kind: PredIn, Lo: math.MinInt64, Hi: 400},
		},
		Cols: []string{"c_id", "c_last", "c_balance"},
		Out:  7, To: 1, Producers: 1,
	})
}

// BenchmarkGroupedPass measures the steady-state allocation cost of a
// grouped-aggregate registration: one op is one full pass of a
// dictionary-grouped COUNT(*), SUM(c_balance) over a customer partition
// — the dense fold of every chunk, then finish gathering the partial
// batch and returning the group table to its pool. A pass must show
// zero steady-state allocations: the table's vectors recycle.
//
//	go test -bench GroupedPass -benchmem ./internal/olap
func BenchmarkGroupedPass(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 10, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	benchScanPasses(b, db, &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0,
		GroupBy: []string{"c_state"}, DictGroups: true,
		Aggs: []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "c_balance"}},
		Out:  7, To: 1, Producers: 1,
	})
}

// BenchmarkStaleChunkPass is BenchmarkGroupedPass behind a stream of
// payments: each op first writes c_balance once in every chunk, as a
// payment does, then runs the grouped pass, which re-encodes only that
// column of each chunk before folding it. It must report 0 allocs/op:
// a column re-encodes into the capacity its vector already has.
//
//	go test -bench StaleChunkPass -benchmem ./internal/olap
func BenchmarkStaleChunkPass(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 10, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	cust := db.Partition(0).TableByID(tpcc.TCustomerID)
	paid := 0.0
	benchScanPasses(b, db, &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0,
		GroupBy: []string{"c_state"}, DictGroups: true,
		Aggs: []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "c_balance"}},
		Out:  7, To: 1, Producers: 1,
	}, func() {
		paid++
		for ci := range cust.NumColChunks() {
			cust.UpdateAt(int32(ci<<storage.ColChunkShift), tpcc.ColCBalance, storage.Float(-paid))
		}
	})
}

// BenchmarkJoinBuild measures the steady-state allocation cost of a
// hash join's build: one op inserts about 8 k build rows (two per key,
// so every key heads a chain) into a pooled table and releases it, as a
// join does when it closes. With the table's arrays recycled, a build
// must show zero steady-state allocations.
//
//	go test -bench JoinBuild -benchmem ./internal/olap
func BenchmarkJoinBuild(b *testing.B) {
	const rows = 8192
	keys := make([]joinKey, rows)
	for i := range keys {
		k := int64(i / 2)
		keys[i] = joinKey{k % 4, k / 4 % 10, k / 40}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := getJoinTable()
		for r, k := range keys {
			t.insert(k, storage.RowRef{Row: int32(r)})
		}
		if len(t.entries) != rows/2 {
			b.Fatalf("%d keys, want %d", len(t.entries), rows/2)
		}
		t.release()
	}
}

// benchScanPasses times one full pass of the registration spec per op,
// over db's partition spec.Part, each after the optional writes.
func benchScanPasses(b *testing.B, db *storage.Database, spec *SharedScanSpec, writes ...func()) {
	w := &Worker{DB: db}
	ctx := &flushSink{costs: sim.DefaultCosts()}
	drive := func(ev *core.Event) {
		for ev != nil {
			ctx.resent = nil
			w.OnEvent(ctx, nil, ev)
			ev = ctx.resent
		}
	}

	// Register once (compiling predicates, resolving the projection or
	// the partial layout and its schema), keeping the cursor and the
	// registration: a finished pass detaches both, and each timed pass
	// re-arms them with a fresh output batch or group table.
	ev := core.GetEvent()
	ev.Kind, ev.Payload = core.EvInstallOp, spec
	w.OnEvent(ctx, nil, ev)
	key := sharedKey{table: spec.Table, part: spec.Part}
	ss := w.shared[key]
	reg := ss.regs[0]
	var schema *storage.Schema
	if reg.out != nil {
		schema = reg.out.Schema
	}
	drive(ctx.resent) // warm: chunk cache, filter set, pools

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, write := range writes {
			write()
		}
		// Each pass draws a fresh pooled continuation, as a new query's
		// install event does: the cursor frees it when the pass ends (its
		// death point), so reusing one event across passes would be a
		// use-after-free against the pool.
		reg.next, reg.done = 0, 0
		if schema != nil {
			reg.out = storage.GetBatch(schema)
		} else {
			reg.armGroups()
		}
		ss.cursor = 0
		ss.regs = append(ss.regs[:0], reg)
		ss.ev = core.GetEvent()
		ss.ev.Kind, ss.ev.Payload = core.EvInstallOp, ss
		w.shared[key] = ss
		drive(ss.ev)
	}
	b.StopTimer()
	if ctx.rows == 0 || ctx.batches == 0 {
		b.Fatalf("scan produced nothing (rows=%d batches=%d)", ctx.rows, ctx.batches)
	}
}
