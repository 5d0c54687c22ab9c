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
// analytical scan's production path on unchanged data: one op is one
// streaming SharedScanSpec registration over a customer partition,
// answered by a replay of the stored pass — every chunk's stamp checked,
// the stored batches held and sent by reference with EOS. It must show
// zero steady-state allocations: the data messages recycle through the
// consumer, and the batches stay the memo's.
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
// table between passes, so every op replays the stored pass: nothing is
// filtered or gathered. It must show zero steady-state allocations.
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
// each pass, so the stored pass is stale and every chunk misses the
// memo: the dictionary bitset narrows it, the selection is stored into
// the chunk's memo entry, the kept rows are gathered, and the pass holds
// and stores the batches it sends. It must report 0 allocs/op: the
// entries, the output's batch and stamp lists and the batches reuse
// their storage.
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
// answered from the memo — every chunk's stamp checked, the stored
// partial batch held and emitted by reference. It must show zero
// steady-state allocations.
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
// partial batch, held, and the chunks' stamps in the memo. It must
// report 0 allocs/op: a column re-encodes into the capacity its vector
// already has, and the store reuses the output's batch and stamp
// slices.
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

// BenchmarkSinkResultReplay is BenchmarkSinkMerge when the four runs
// are the batches the last sink of the shape consumed — held batches, as
// a shared scan's replay sends them: one op opens a sink on the Worker,
// which finds the kept result of its shape, delivers the four runs, each
// held back against it, and closes the stream: the sink gives back its
// holds on the runs and takes the kept result batches, each held once
// more for the consumer, who frees them. The report's envelope — one
// QueryResult and its batch list per query, which the consumer owns —
// lies outside the op. It must show zero steady-state allocations.
//
//	go test -bench SinkResultReplay -benchmem ./internal/olap
func BenchmarkSinkResultReplay(b *testing.B) {
	const parts, groups = 4, 26 * 26
	spec := &SinkSpec{GroupBy: []string{"c_state"}, MergePartials: true,
		Aggs:     []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "c_balance"}},
		OutCols:  []string{"c_state", "n", "balance"},
		OutKinds: []storage.Kind{storage.KStr, storage.KInt, storage.KFloat}, OutSrc: []int{0, 1, 2}, Limit: -1}
	partial := storage.NewSchema("customer_partial", storage.Column{Name: "g0", Kind: storage.KStr},
		storage.Column{Name: "p0", Kind: storage.KInt}, storage.Column{Name: "p1", Kind: storage.KFloat})
	runs := make([]*storage.Batch, parts)
	for p := range runs {
		runs[p] = storage.GetBatch(partial)
		for i := range groups {
			state := string([]byte{'A' + byte(i/26), 'A' + byte(i%26)})
			runs[p].AppendValues(storage.Str(state), storage.Int(int64(1+(i+p)%7)), storage.Float(float64(i*p)/4))
		}
	}
	w := &Worker{}
	ctx := &flushSink{costs: sim.DefaultCosts()}
	msg := &core.DataMsg{Producers: parts}
	s := &sinkState{}
	held := make([]*storage.Batch, 0, parts)
	var out []*storage.Batch
	op := func() {
		*s = sinkState{back: holdBack{held: held[:0]}}
		s.open(w, spec)
		for _, run := range runs {
			storage.HoldBatch(run) // the delivery's hold, as a replay takes it
			msg.Batch = run
			s.OnData(ctx, nil, msg)
		}
		var rows int
		if out, rows = s.result(out[:0]); rows != groups {
			b.Fatalf("%d rows, want %d", rows, groups)
		}
		freeBatches(out) // the consumer's frees
	}
	op() // the first sink merges and keeps its result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if w.work.replayedSinks != b.N {
		b.Fatalf("%d sinks replayed, want %d", w.work.replayedSinks, b.N)
	}
	w.Release()
	for _, run := range runs {
		storage.FreeBatch(run)
	}
}

// BenchmarkJoinBuildReuse is BenchmarkJoinBuild when the build stream
// delivers the batches the last build of the join's shape consumed —
// eight held 1 024-row batches, as a shared scan's replay sends them:
// one op feeds them to a join on the Worker that kept that build, which
// holds each batch back against it, reuses the kept box and table at
// close, and gives its reference back as a join does when its probe side
// closes. It must show zero steady-state
// allocations.
//
//	go test -bench JoinBuildReuse -benchmem ./internal/olap
func BenchmarkJoinBuildReuse(b *testing.B) {
	const batches = 8
	schema := storage.NewSchema("b",
		storage.Column{Name: "w", Kind: storage.KInt},
		storage.Column{Name: "d", Kind: storage.KInt},
		storage.Column{Name: "c", Kind: storage.KInt})
	build := make([]*storage.Batch, batches)
	for i := range build {
		build[i] = storage.GetBatch(schema)
		for r := range DefaultBatchRows {
			k := int64((i*DefaultBatchRows + r) / 2)
			build[i].AppendValues(storage.Int(k%4), storage.Int(k/4%10), storage.Int(k/40))
		}
	}
	w := &Worker{}
	ctx := &flushSink{costs: sim.DefaultCosts()}
	spec := &JoinSpec{Query: 1, Build: 1, BuildKey: []string{"w", "d", "c"}, Probe: 2, ProbeKey: []string{"w", "d", "c"},
		BuildOut: []string{"c"}, Out: 3, To: 1, Producers: 1, Notify: core.NoAC}
	msg := &core.DataMsg{Stream: 1, Producers: 1}
	st, held := &joinState{}, make([]*storage.Batch, 0, batches)
	op := func() {
		*st = joinState{spec: spec, w: w, back: holdBack{held: held[:0]}}
		for _, bb := range build {
			storage.HoldBatch(bb) // the delivery's hold, as a replay takes it
			msg.Batch = bb
			(*joinBuildSink)(st).OnData(ctx, nil, msg)
		}
		st.closeBuild()
		if st.distinctKeys() != batches*DefaultBatchRows/2 {
			b.Fatalf("%d keys, want %d", st.distinctKeys(), batches*DefaultBatchRows/2)
		}
		st.release()
	}
	op() // the first build is indexed and kept
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if w.work.builds != 1 || w.work.reusedBuilds != b.N {
		b.Fatalf("%d builds and %d reused, want 1 and %d", w.work.builds, w.work.reusedBuilds, b.N)
	}
	w.Release()
	for _, bb := range build {
		storage.FreeBatch(bb)
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
	// asks the store first, as a new registration does (replay): it
	// answers the op by reference, or arms a fresh output batch or group
	// table and a recording for the pass.
	ev := core.GetEvent()
	ev.Kind, ev.Payload = core.EvInstallOp, spec
	w.OnEvent(ctx, nil, ev)
	key := sharedKey{table: spec.Table, part: spec.Part}
	t := db.Partition(spec.Part).TableByID(spec.Table)
	ss := w.shared[key]
	reg := ss.regs[0]
	drive(ctx.resent) // warm: chunk cache, memo signature, kept output, pools

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
		if w.replay(ctx, t, reg) {
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
	w.Release()
}
