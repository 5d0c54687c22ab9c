package olap

import (
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// TestSharedScanConcurrencySpeedup pins the point of the shared-scan
// engine by counting the work it shares: 32 registrations of the same
// LIKE query in flight together evaluate the predicate exactly once per
// chunk, not once per registration per chunk. The prefix filter is a
// per-row dictionary-bitset probe on the encoded chunks, so evaluating
// it is real work that only the selection memo's sharing within a pass
// saves: the first registration due at a chunk stores its entry and the
// other 31 hit it (a trivially satisfiable filter such as `c_d_id <> 0`
// collapses to a chunk-level match-all and shares nothing measurable).
// The virtual-time speedup over running the queries one after another
// is logged, not gated.
func TestSharedScanConcurrencySpeedup(t *testing.T) {
	solo := runLikeQueries(t, 1)
	conc := runLikeQueries(t, 32)
	for q, n := range conc.counts {
		if n != solo.counts[0] {
			t.Fatalf("query %d: count = %d, want %d", q+1, n, solo.counts[0])
		}
	}
	if solo.evals != solo.chunks {
		t.Fatalf("one query evaluated its predicate %d times over %d chunks", solo.evals, solo.chunks)
	}
	if conc.evals != conc.chunks {
		t.Fatalf("32 concurrent queries evaluated their shared predicate %d times over %d chunks, want once per chunk",
			conc.evals, conc.chunks)
	}
	t.Logf("32 concurrent queries: %d predicate evaluations over %d chunks, done at %v; 32 sequential ≈ 32 × %v (%.1fx)",
		conc.evals, conc.chunks, conc.makespan, solo.makespan, float64(32*solo.makespan)/float64(conc.makespan))
}

// likeRun is one runLikeQueries outcome.
type likeRun struct {
	evals, chunks int
	makespan      sim.Time
	counts        []int64
}

// runLikeQueries installs n copies of SELECT COUNT(*) FROM customer WHERE
// c_state LIKE 'A%' together at virtual time 0 on a fresh four-partition
// database — one shared-scan registration per partition per query, and
// a merging sink per query on another server — and runs them to
// completion.
func runLikeQueries(t *testing.T, n int) likeRun {
	t.Helper()
	cfg := tpcc.Config{Warehouses: 4, Districts: 3, Customers: 2000,
		Items: 10, InitOrders: 10, Seed: 9}.WithDefaults()
	db, _ := tpcc.NewDatabase(cfg)
	topo := core.NewTopology(db)
	owners, other := topo.AddServer(4), topo.AddServer(4)
	for w := 0; w < cfg.Warehouses; w++ {
		topo.SetOwner(w, owners[w])
	}
	var workers []*Worker
	cl := core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		w := &Worker{DB: db}
		workers = append(workers, w)
		ac.Register(core.EvInstallOp, w)
	})
	run := likeRun{counts: make([]int64, n)}
	cl.SetClient(func(at sim.Time, ev *core.Event) {
		if r, ok := ev.Payload.(*QueryResult); ok {
			run.counts[r.Query-1] = r.Batches[0].Value(0, 0).I
			run.makespan = max(run.makespan, at)
		}
	})
	aggs := []AggExpr{{Fn: AggCount}}
	like := []Predicate{{Col: "c_state", Kind: PredPrefix, Str: "A"}}
	for q := core.QueryID(1); q <= core.QueryID(n); q++ {
		out := core.StreamID(uint64(q) * 64)
		for w := 0; w < cfg.Warehouses; w++ {
			cl.Inject(topo.Owner(w), &core.Event{Kind: core.EvInstallOp, Query: q, Payload: &SharedScanSpec{
				Query: q, Table: tpcc.TCustomerID, Part: w, Filters: like,
				Aggs: aggs, Out: out, To: other[0], Producers: cfg.Warehouses,
			}}, 0)
		}
		cl.Inject(other[0], &core.Event{Kind: core.EvInstallOp, Query: q, Payload: &SinkSpec{
			Query: q, In: out, Aggs: aggs, MergePartials: true,
			OutCols: []string{"count"}, OutKinds: []storage.Kind{storage.KInt},
			OutSrc: []int{0}, Limit: -1, Notify: core.ClientAC,
		}}, 0)
	}
	cl.Run()
	for _, w := range workers {
		run.evals += w.work.evals
	}
	for w := 0; w < cfg.Warehouses; w++ {
		run.chunks += db.Partition(w).TableByID(tpcc.TCustomerID).NumColChunks()
	}
	for q, c := range run.counts {
		if c == 0 {
			t.Fatalf("query %d: no rows counted", q+1)
		}
	}
	return run
}
