package olap

import (
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// joinCollect is a stub context that keeps the join's output rows.
type joinCollect struct {
	flushSink
	out []storage.Row
}

func (c *joinCollect) SendData(_ core.ACID, msg *core.DataMsg) {
	if b := msg.Batch; b != nil {
		for i := 0; i < b.Len(); i++ {
			c.out = append(c.out, b.Row(i))
		}
		storage.FreeBatch(b)
	}
	core.FreeDataMsg(msg)
}

// newBareJoin returns a join state driven directly through its build and
// probe sinks, with no AC: the build side's Last would subscribe the
// probe stream on the AC, so callers feed build batches without it,
// close the build with closeBuild and feed probe batches straight into
// the probe sink. The output carries the columns buildOut and probeOut.
func newBareJoin(buildKey, probeKey, buildOut, probeOut []string) *joinState {
	return &joinState{spec: &JoinSpec{
		Query: 1, Build: 1, BuildKey: buildKey, Probe: 2, ProbeKey: probeKey,
		BuildOut: buildOut, ProbeOut: probeOut,
		Out: 3, To: 1, Producers: 1, Notify: core.NoAC, Label: "j",
	}, ht: getJoinTable()}
}

// TestJoinBuildBatchOver64KRows feeds one build batch larger than 65 535
// rows — reachable, since a join appends every match of a probe row
// before checking its batch size and the next join builds on that
// output — and checks that rows past 65 535 join with their own payload.
func TestJoinBuildBatchOver64KRows(t *testing.T) {
	const n = 70000
	bs := storage.NewSchema("b",
		storage.Column{Name: "bk", Kind: storage.KInt},
		storage.Column{Name: "bv", Kind: storage.KInt})
	ps := storage.NewSchema("p", storage.Column{Name: "pk", Kind: storage.KInt})
	build := storage.NewBatch(bs)
	for i := 0; i < n; i++ {
		build.AppendValues(storage.Int(int64(i)), storage.Int(int64(10*i)))
	}
	probe := storage.NewBatch(ps)
	keys := []int64{0, 1, 65535, 65536, 65537, 69999, n + 5}
	for _, k := range keys {
		probe.AppendValues(storage.Int(k))
	}

	ctx := &joinCollect{flushSink: flushSink{costs: sim.DefaultCosts()}}
	st := newBareJoin([]string{"bk"}, []string{"pk"}, []string{"bk", "bv"}, []string{"pk"})
	(*joinBuildSink)(st).OnData(ctx, nil, &core.DataMsg{Stream: 1, Batch: build, Producers: 1})
	st.closeBuild()
	(*joinProbeSink)(st).OnData(ctx, core.NewAC(1), &core.DataMsg{Stream: 2, Batch: probe, Last: true, Producers: 1})

	if len(ctx.out) != len(keys)-1 {
		t.Fatalf("%d output rows, want %d", len(ctx.out), len(keys)-1)
	}
	for i, row := range ctx.out {
		k := keys[i]
		if row[0].I != k || row[1].I != 10*k || row[2].I != k {
			t.Fatalf("row %d = %v, want [%d %d %d]", i, row, k, 10*k, k)
		}
	}
}

// TestJoinTableSizedFromBuild: a recycled table sizes its slots from the
// build it indexes, not from the largest build it ever held, so after a
// large build a 10-key build zeroes at most 64 slots.
func TestJoinTableSizedFromBuild(t *testing.T) {
	index := func(tab *joinTable, n int) {
		b := storage.NewBatch(storage.NewSchema("b", storage.Column{Name: "k", Kind: storage.KInt}))
		for i := 0; i < n; i++ {
			b.AppendValues(storage.Int(int64(i)))
		}
		tab.index([]*storage.Batch{b}, []int{0}, n)
		if len(tab.entries) != n {
			t.Fatalf("%d entries after a %d-key build", len(tab.entries), n)
		}
	}
	var tab joinTable
	index(&tab, 1<<16)
	if len(tab.slots) < 1<<17 {
		t.Fatalf("a %d-key build holds %d slots, want at least twice the keys", 1<<16, len(tab.slots))
	}
	tab.reset()
	index(&tab, 10)
	if len(tab.slots) > 64 {
		t.Fatalf("a 10-key build on a recycled table holds %d slots, want at most 64", len(tab.slots))
	}
	if tab.lookup(joinKey{9}) < 0 || tab.lookup(joinKey{10}) >= 0 {
		t.Fatal("the 10-key build answers lookups wrongly")
	}
}

// BenchmarkJoinProbe measures the hash join's probe path on the paper's
// first Q3 join: build on one warehouse's customers with c_state LIKE
// 'A%' (keyed on w, d, c_id), shipping c_state too, so the build is not
// key-only and keeps its hash table; then per op probe one re-armed
// pooled 1 024-row orders batch, gathering and emitting the matches.
// Like BenchmarkScanFlush it must report 0 allocs/op: the probe queues
// matches in reused scratch and the output batch recycles through the
// consumer.
//
//	go test -bench JoinProbe -benchmem ./internal/olap
func BenchmarkJoinProbe(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 3000, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	cust := db.Partition(0).TableByID(tpcc.TCustomerID)
	orders := db.Partition(0).TableByID(tpcc.TOrdersID)

	project := func(t *storage.Table, cols []string) (*storage.Schema, []int) {
		idx := colIdx(t.Schema, cols)
		out := make([]storage.Column, len(idx))
		for i, c := range idx {
			out[i] = t.Schema.Cols[c]
		}
		return storage.NewSchema(t.Schema.Name+"_scan", out...), idx
	}

	ctx := &flushSink{costs: sim.DefaultCosts()}
	st := newBareJoin([]string{"c_w_id", "c_d_id", "c_id"}, []string{"o_w_id", "o_d_id", "o_c_id"},
		[]string{"c_state"}, []string{"o_w_id", "o_d_id", "o_id"})
	bs, bIdx := project(cust, []string{"c_w_id", "c_d_id", "c_id", "c_state"})
	preds := []compiledPred{compilePred(cust.Schema, Predicate{Col: "c_state", Kind: PredPrefix, Str: "A"})}
	var sel []int32
	for ci := 0; ci < cust.NumColChunks(); ci++ {
		chunk := cust.ColChunk(ci)
		sel = matchChunk(chunk, preds, sel)
		bb := storage.GetBatch(bs)
		bb.AppendRows(chunk.Cols, bIdx, sel)
		(*joinBuildSink)(st).OnData(ctx, nil, &core.DataMsg{Stream: 1, Batch: bb, Producers: 1})
	}
	st.closeBuild()
	if st.direct {
		b.Fatal("a build shipping c_state joined without its hash table")
	}

	// The probe windows: consecutive 1 024-row slices of orders chunk 0.
	ps, pIdx := project(orders, []string{"o_w_id", "o_d_id", "o_c_id", "o_id"})
	chunk := orders.ColChunk(0)
	var windows [][]int32
	for lo := 0; lo+DefaultBatchRows <= chunk.Len(); lo += DefaultBatchRows {
		w := make([]int32, DefaultBatchRows)
		for i := range w {
			w[i] = int32(lo + i)
		}
		windows = append(windows, w)
	}
	msg := &core.DataMsg{Stream: 2, Producers: 1}
	probe := func(i int) {
		pb := storage.GetBatch(ps)
		pb.AppendRows(chunk.Cols, pIdx, windows[i%len(windows)])
		msg.Batch = pb
		(*joinProbeSink)(st).OnData(ctx, nil, msg)
	}
	// Warm until a few output batches have cycled through the consumer
	// and back: the batch pool, the column capacities and the match
	// scratch are all at steady state.
	for i := 0; ctx.batches < 3; i++ {
		probe(i)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe(i)
	}
	b.StopTimer()
	if ctx.rows+int64(st.out.Len()) == 0 {
		b.Fatal("join matched nothing")
	}
}

// BenchmarkKeyBoxJoin measures a join that needs no hash table: per op it
// closes Q3's first build — one warehouse's customers with c_state LIKE
// 'A%', shipping only the key (w, d, c_id), so the key box's bitmap
// proves the keys distinct — and forwards one 1 024-row orders batch,
// each row whose key the bitmap holds projected onto (w, d, o_id). It
// must report 0 allocs/op: the bitmap and the row and offset scratch
// live in the recycled join table, and the output batch recycles through
// the consumer.
//
//	go test -bench KeyBoxJoin -benchmem ./internal/olap
func BenchmarkKeyBoxJoin(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 3000, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	cust := db.Partition(0).TableByID(tpcc.TCustomerID)
	orders := db.Partition(0).TableByID(tpcc.TOrdersID)
	scan := func(t *storage.Table, cols []string, preds []compiledPred, ci int, sel []int32) *storage.Batch {
		idx := colIdx(t.Schema, cols)
		out := make([]storage.Column, len(idx))
		for i, c := range idx {
			out[i] = t.Schema.Cols[c]
		}
		chunk := t.ColChunk(ci)
		if preds != nil {
			sel = matchChunk(chunk, preds, sel)
		}
		bb := storage.NewBatch(storage.NewSchema(t.Schema.Name+"_scan", out...))
		bb.AppendRows(chunk.Cols, idx, sel)
		return bb
	}

	key := []string{"c_w_id", "c_d_id", "c_id"}
	preds := []compiledPred{compilePred(cust.Schema, Predicate{Col: "c_state", Kind: PredPrefix, Str: "A"})}
	var build []*storage.Batch
	for ci := 0; ci < cust.NumColChunks(); ci++ {
		build = append(build, scan(cust, key, preds, ci, nil))
	}
	ps := []string{"o_w_id", "o_d_id", "o_c_id", "o_id"}
	var windows []*storage.Batch
	for lo := 0; lo+DefaultBatchRows <= orders.ColChunk(0).Len(); lo += DefaultBatchRows {
		w := make([]int32, DefaultBatchRows)
		for i := range w {
			w[i] = int32(lo + i)
		}
		windows = append(windows, scan(orders, ps, nil, 0, w))
	}

	ctx := &flushSink{costs: sim.DefaultCosts()}
	st := newBareJoin(key, []string{"o_w_id", "o_d_id", "o_c_id"}, nil, []string{"o_w_id", "o_d_id", "o_id"})
	msg := &core.DataMsg{Stream: 1, Producers: 1}
	all := identityCols(len(ps))
	var sel []int32
	op := func(i int) {
		st.build, st.rows = st.build[:0], 0
		st.ht.reset()
		for _, bb := range build {
			msg.Batch = bb
			(*joinBuildSink)(st).OnData(ctx, nil, msg)
		}
		st.closeBuild()
		// The probe batch is re-armed from its window: the join frees
		// what it probes.
		w := windows[i%len(windows)]
		pb := storage.GetBatch(w.Schema)
		sel = identity(sel, w.Len())
		pb.AppendRows(w.Cols, all, sel)
		msg.Batch = pb
		(*joinProbeSink)(st).OnData(ctx, nil, msg)
	}
	for i := 0; ctx.batches < 3; i++ {
		op(i)
	}
	if !st.direct {
		b.Fatal("the key-only distinct build kept its hash table")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	if ctx.rows == 0 {
		b.Fatal("join forwarded nothing")
	}
}

// eosRecorder is a DataSink that notes an end of stream.
type eosRecorder struct{ eos bool }

func (r *eosRecorder) OnData(_ core.Context, _ *core.AC, msg *core.DataMsg) {
	r.eos = r.eos || msg.Last
}

// TestJoinDropsItsStreams runs a join to its end on an AC and checks that
// the join left no state behind for its build and probe streams: a new
// subscriber to either starts a fresh stream, with no sink already on it
// and no end of stream seen. A join that kept them would keep its own
// state alive, query after query.
func TestJoinDropsItsStreams(t *testing.T) {
	ac := core.NewAC(1)
	ctx := &joinCollect{flushSink: flushSink{costs: sim.DefaultCosts()}}
	spec := &JoinSpec{Query: 1, Build: 1, BuildKey: []string{"k"}, Probe: 2, ProbeKey: []string{"k"},
		BuildOut: []string{"k"}, Out: 3, To: 1, Producers: 1, Notify: core.NoAC}
	(&Worker{}).newJoin(ctx, ac, spec)
	s := storage.NewSchema("s", storage.Column{Name: "k", Kind: storage.KInt})
	for _, sid := range []core.StreamID{spec.Build, spec.Probe} {
		b := storage.GetBatch(s)
		b.AppendValues(storage.Int(7))
		msg := core.GetDataMsg()
		msg.Stream, msg.Query, msg.Batch, msg.Last, msg.Producers = sid, spec.Query, b, true, 1
		ac.HandleData(ctx, msg)
	}
	if len(ctx.out) != 1 {
		t.Fatalf("the join emitted %d rows, want 1", len(ctx.out))
	}
	for _, sid := range []core.StreamID{spec.Build, spec.Probe} {
		var r eosRecorder
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("stream %d kept the join subscribed after it closed: %v", sid, p)
				}
			}()
			ac.Subscribe(ctx, sid, &r)
		}()
		if r.eos {
			t.Fatalf("stream %d kept its closed state after the join closed", sid)
		}
	}
}
