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
// top-N customer query, c_d_id = 1 AND c_id <= 400. Nothing writes the
// table between passes, so every chunk's selection comes from the memo
// and only the gather runs. A pass must show zero steady-state
// allocations.
//
//	go test -bench FilteredScan -benchmem ./internal/olap
func BenchmarkFilteredScan(b *testing.B) {
	benchScanPasses(b, customerDB(), &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0,
		Filters: []Predicate{
			{Col: "c_d_id", Kind: PredIn, Lo: 1, Hi: 1},
			{Col: "c_id", Kind: PredIn, Lo: math.MinInt64, Hi: 400},
		},
		Cols: []string{"c_id", "c_last", "c_balance"},
		Out:  7, To: 1, Producers: 1,
	})
}

// BenchmarkStaleFilteredScan is the customer side of Q3's first join,
// c_state LIKE 'A%', behind a write of c_state in every chunk before
// each pass, so every chunk misses the memo: the dictionary bitset
// narrows it, and the selection is stored into the chunk's memo entry.
// It must report 0 allocs/op: the entry reuses its storage.
//
//	go test -bench StaleFilteredScan -benchmem ./internal/olap
func BenchmarkStaleFilteredScan(b *testing.B) {
	db := customerDB()
	benchScanPasses(b, db, &SharedScanSpec{
		Query: 1, Table: tpcc.TCustomerID, Part: 0,
		Filters: []Predicate{{Col: "c_state", Kind: PredPrefix, Str: tpcc.Q3StatePrefix}},
		Cols:    []string{"c_w_id", "c_d_id", "c_id"},
		Out:     7, To: 1, Producers: 1,
	}, rewriteEveryChunk(db.Partition(0).TableByID(tpcc.TCustomerID), "c_state"))
}

// customerDB returns the one-partition, 6 000-customer database the
// customer scan benchmarks run over.
func customerDB() *storage.Database {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 10, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	return db
}

// rewriteEveryChunk returns a write that stores column col of the first
// row of every chunk of t back unchanged: the answer stays, but each
// chunk's column is stale and re-encodes under a new stamp.
func rewriteEveryChunk(t *storage.Table, col string) func() {
	c := t.Schema.MustCol(col)
	return func() {
		for ci := range t.NumColChunks() {
			slot := int32(ci << storage.ColChunkShift)
			t.UpdateAt(slot, c, t.Field(slot, c))
		}
	}
}

// BenchmarkGroupedPass measures the steady-state allocation cost of a
// grouped-aggregate registration over unchanged data: one op is a
// dictionary-grouped COUNT(*), SUM(c_balance) over a customer partition
// answered from the partial memo — every chunk's stamp checked, the
// stored partial copied into a pooled batch and emitted. It must show
// zero steady-state allocations: the copy's selection is the Worker's.
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
// payment does, so the memo misses and the grouped pass runs: it
// re-encodes only that column of each chunk, folds it, and stores the
// partial and the chunks' stamps in the memo. It must report 0
// allocs/op: a column re-encodes into the capacity its vector already
// has, and the store reuses the entry's batch and stamp slices.
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

// BenchmarkSinkMerge measures the steady-state allocation cost of a
// sink's combine step for a grouped COUNT(*), SUM(c_balance) over four
// partitions: one op takes a pooled group table, receives four partial
// runs of 676 groups each (every two-letter state, in group order) as
// pooled batches, merges them and releases the table, which frees the
// runs. It must show zero steady-state allocations: the run heads, the
// tied heads and the per-run slot lists live in the pooled table.
//
//	go test -bench SinkMerge -benchmem ./internal/olap
func BenchmarkSinkMerge(b *testing.B) {
	const parts, groups = 4, 26 * 26
	spec := &SinkSpec{GroupBy: []string{"c_state"}, MergePartials: true,
		Aggs:     []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "c_balance"}},
		OutKinds: []storage.Kind{storage.KStr, storage.KInt, storage.KFloat}, OutSrc: []int{0, 1, 2}}
	partial := storage.NewSchema("customer_partial", storage.Column{Name: "g0", Kind: storage.KStr},
		storage.Column{Name: "p0", Kind: storage.KInt}, storage.Column{Name: "p1", Kind: storage.KFloat})
	runs := make([]*storage.Batch, parts)
	for p := range runs {
		runs[p] = storage.NewBatch(partial)
		for i := range groups {
			state := string([]byte{'A' + byte(i/26), 'A' + byte(i%26)})
			runs[p].AppendValues(storage.Str(state), storage.Int(int64(1+(i+p)%7)), storage.Float(float64(i*p)/4))
		}
	}
	cols, sel := []int{0, 1, 2}, identity(nil, groups)
	s := &sinkState{spec: spec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.groups = sinkGroups(spec)
		for _, run := range runs {
			in := storage.GetBatch(partial)
			in.AppendRows(run.Cols, cols, sel)
			s.groups.runs = append(s.groups.runs, in)
		}
		s.mergePartials()
		if len(s.groups.rows) != groups {
			b.Fatalf("%d groups, want %d", len(s.groups.rows), groups)
		}
		s.groups.release()
	}
}

// BenchmarkJoinBuild measures the steady-state allocation cost of a
// hash join's build: one op indexes about 8 k build rows (two per key,
// so every key heads a chain) in a pooled table and releases it, as a
// join does when it closes. With the table's arrays recycled, a build
// must show zero steady-state allocations.
//
//	go test -bench JoinBuild -benchmem ./internal/olap
func BenchmarkJoinBuild(b *testing.B) {
	const rows = 8192
	batch := storage.NewBatch(storage.NewSchema("b",
		storage.Column{Name: "w", Kind: storage.KInt},
		storage.Column{Name: "d", Kind: storage.KInt},
		storage.Column{Name: "c", Kind: storage.KInt}))
	for i := range rows {
		k := int64(i / 2)
		batch.AppendValues(storage.Int(k%4), storage.Int(k/4%10), storage.Int(k/40))
	}
	build, cols := []*storage.Batch{batch}, []int{0, 1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := getJoinTable()
		t.index(build, cols, rows)
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
	// re-arms them with a fresh output batch, or, for a pushdown, asks
	// the partial memo first as a new registration does (replay): it
	// answers the op or arms a fresh group table.
	ev := core.GetEvent()
	ev.Kind, ev.Payload = core.EvInstallOp, spec
	w.OnEvent(ctx, nil, ev)
	key := sharedKey{table: spec.Table, part: spec.Part}
	t := db.Partition(spec.Part).TableByID(spec.Table)
	ss := w.shared[key]
	reg := ss.regs[0]
	var schema *storage.Schema
	if reg.out != nil {
		schema = reg.out.Schema
	}
	drive(ctx.resent) // warm: chunk cache, memo signature, pools

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
		} else if w.replay(ctx, t, reg) {
			continue
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
