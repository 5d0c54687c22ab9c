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
// probe sinks, with no AC: the build side is never closed (closing
// subscribes the probe stream on the AC), so callers feed probe batches
// straight into the probe sink.
func newBareJoin(buildKey, probeKey []string) *joinState {
	return &joinState{spec: &JoinSpec{
		Query: 1, Build: 1, BuildKey: buildKey, Probe: 2, ProbeKey: probeKey,
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
	st := newBareJoin([]string{"bk"}, []string{"pk"})
	(*joinBuildSink)(st).OnData(ctx, nil, &core.DataMsg{Stream: 1, Batch: build, Producers: 1})
	(*joinProbeSink)(st).OnData(ctx, nil, &core.DataMsg{Stream: 2, Batch: probe, Last: true, Producers: 1})

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

// BenchmarkJoinProbe measures the hash join's probe path on the paper's
// first Q3 join: build on one warehouse's customers with c_state LIKE
// 'A%' (keyed on w, d, c_id), then per op probe one re-armed pooled
// 1 024-row orders batch, gathering and emitting the matches. Like
// BenchmarkScanFlush it must report 0 allocs/op: the probe queues
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
	st := newBareJoin([]string{"c_w_id", "c_d_id", "c_id"}, []string{"o_w_id", "o_d_id", "o_c_id"})
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
