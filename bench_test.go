// Benchmarks regenerating the paper's evaluation, one per figure (plus
// the routing ablation). Each benchmark prints the reproduced table once
// and reports wall time per full regeneration; the numbers inside the
// tables are deterministic virtual-time measurements, so -benchtime=1x is
// enough.
//
//	go test -bench=. -benchmem
//	go test -bench Figure5 -run - -v
package anydb_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anydb"
	"anydb/internal/bench"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

var printOnce sync.Once

// benchOLTP uses a shorter phase than the CLI so `go test -bench .` stays
// fast; shapes are unchanged (the simulation is deterministic).
func benchOLTP() bench.OLTPOpts {
	o := bench.DefaultOLTPOpts()
	o.PhaseDur = 10 * sim.Millisecond
	return o
}

// BenchmarkFigure1 regenerates Figure 1: OLTP throughput across the
// 12-phase evolving workload, DBx1000 vs AnyDB.
func BenchmarkFigure1(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		res := bench.Figure1(benchOLTP())
		out = bench.RenderFigure1(res, benchOLTP())
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkFigure5 regenerates Figure 5: the six OLTP execution-strategy
// series over partitionable and skewed phases.
func BenchmarkFigure5(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		series := bench.Figure5(benchOLTP())
		out = bench.RenderFigure5(series, benchOLTP()) + "\n" + bench.Headline(series)
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkFigure6 regenerates Figure 6: data beaming runtimes vs query
// compile time (scaled-down database; cmd/anydb-bench runs full scale).
func BenchmarkFigure6(b *testing.B) {
	opts := bench.DefaultFig6Opts()
	opts.Cfg.Warehouses = 12
	opts.Cfg.InitOrders = 1500
	var out string
	for i := 0; i < b.N; i++ {
		res := bench.Figure6(opts)
		out = bench.RenderFigure6(res)
	}
	b.StopTimer()
	fmt.Println(out)
}

// BenchmarkAblationRouting quantifies the event cost of each routing mode
// (Figure 4's duality measured).
func BenchmarkAblationRouting(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.RenderAblation(bench.Ablation(benchOLTP()))
	}
	b.StopTimer()
	fmt.Println(out)
}

// openBenchCluster sizes a real-runtime cluster for the submission
// benchmarks below (these measure the public API's hot path, not a
// paper figure).
func openBenchCluster(b *testing.B) *anydb.Cluster {
	b.Helper()
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 4, CustomersPerDistrict: 100,
		InitialOrdersPerDist: 10, Items: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

const submitWorkers = 4

// BenchmarkSubmitContention measures the cluster-entry path under
// maximum submitter parallelism: GOMAXPROCS sessions pipeline payments
// (a 64-deep window each), so every submission hits the gate/inflight
// accounting at the same time. The NoChurn variant is the steady state;
// PolicyChurn keeps a concurrent SetPolicy loop flipping the routing, so
// the drain/reopen slow path stays exercised while submitters race it.
// Run with -cpu 1,4 to see the contention slope, and with
// -mutexprofile to verify the uncontended path takes no mutex.
func BenchmarkSubmitContention(b *testing.B) {
	for _, churn := range []bool{false, true} {
		name := "NoChurn"
		if churn {
			name = "PolicyChurn"
		}
		b.Run(name, func(b *testing.B) {
			c := openBenchCluster(b)
			ctx := context.Background()
			stop := make(chan struct{})
			var churner sync.WaitGroup
			if churn {
				churner.Add(1)
				go func() {
					defer churner.Done()
					pols := []anydb.Policy{anydb.StreamingCC, anydb.SharedNothing}
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						sctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
						c.SetPolicy(sctx, pols[i%len(pols)])
						cancel()
						time.Sleep(time.Millisecond)
					}
				}()
			}
			b.ResetTimer()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				const window = 64
				futs := make([]*anydb.Future, 0, window)
				flush := func() {
					for _, f := range futs {
						if _, err := f.Wait(ctx); err != nil {
							b.Error(err)
						}
					}
					futs = futs[:0]
				}
				i := 0
				for pb.Next() {
					f, err := c.SubmitPayment(ctx, anydb.Payment{
						Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
					})
					if err != nil {
						b.Error(err)
						return
					}
					if futs = append(futs, f); len(futs) == window {
						flush()
					}
					i++
				}
				flush()
			})
			b.StopTimer()
			close(stop)
			churner.Wait()
		})
	}
}

// BenchmarkRebalance measures the live partition-handoff path: each op
// is one Cluster.Rebalance bouncing a warehouse between two servers
// while pipelined payment sessions keep every warehouse loaded — so the
// reported ns/op is the real gate-drain-handoff-reopen latency under
// traffic, and the txn/s metric shows what throughput the moves leave
// intact (the dip). Run with -cpu 1,4 alongside the other submit-plane
// benchmarks.
func BenchmarkRebalance(b *testing.B) {
	c, err := anydb.Open(anydb.Config{
		Servers: 3, Warehouses: 8, Districts: 4, CustomersPerDistrict: 100,
		InitialOrdersPerDist: 10, Items: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	ctx := context.Background()
	stop := make(chan struct{})
	var committed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const window = 32
			futs := make([]*anydb.Future, 0, window)
			flush := func() {
				for _, f := range futs {
					if ok, err := f.Wait(ctx); err == nil && ok {
						committed.Add(1)
					}
				}
				futs = futs[:0]
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					flush()
					return
				default:
				}
				f, err := c.SubmitPayment(ctx, anydb.Payment{
					Warehouse: (g + i) % 8, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
				})
				if err != nil {
					return
				}
				if futs = append(futs, f); len(futs) == window {
					flush()
				}
			}
		}(g)
	}
	b.ResetTimer()
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := c.Rebalance(ctx, 7, []int{0, 2}[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	wg.Wait()
	if elapsed > 0 {
		b.ReportMetric(float64(committed.Load())/elapsed.Seconds(), "txn/s")
	}
}

// BenchmarkSharedScanConcurrency measures aggregate analytical query
// throughput as concurrency grows. All queries scan the same table, so
// concurrent registrations ride shared cursor passes (one chunk fetch
// and one driver continuation per chunk, however many queries attach)
// while parse/plan/sink work pipelines across ACs. Conc1 is the
// sequential baseline; the queries/s metric is the headline. Run with
// -cpu 1,4 alongside the submit-plane benchmarks.
// scanBenchConfig sizes the analytical benchmarks below: 10k customers
// per partition (several columnar chunks), so scan work dominates the
// per-query fixed costs and cursor sharing is what's being measured.
func scanBenchConfig() anydb.Config {
	return anydb.Config{
		Warehouses: 4, Districts: 4, CustomersPerDistrict: 2500,
		InitialOrdersPerDist: 10, Items: 100,
	}
}

func BenchmarkSharedScanConcurrency(b *testing.B) {
	const query = "SELECT COUNT(*) FROM customer WHERE c_d_id <> 0"
	for _, conc := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("Conc%d", conc), func(b *testing.B) {
			c, err := anydb.Open(scanBenchConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			ctx := context.Background()
			var want int64
			if err := c.QueryRow(ctx, query).Scan(&want); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			var next atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < conc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						var n int64
						if err := c.QueryRow(ctx, query).Scan(&n); err != nil {
							b.Error(err)
							return
						}
						if n != want {
							b.Errorf("count = %d, want %d", n, want)
							return
						}
					}
				}()
			}
			wg.Wait()
			if elapsed := time.Since(start); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
			}
		})
	}
}

// BenchmarkQueryShapes runs the repo benchmark's four olap_shared
// statements — the grouped count and sum, the LIKE count, Q3 and the
// top-N — round-robin from eight goroutines on scanBenchConfig, and
// checks every answer against a naive evaluation over the row heaps.
// Every statement runs once before the timer starts, so the plans are
// compiled and the memos filled, as in a long run. It reports queries/s,
// and allocs/op under -benchmem; `make profile-query` profiles it.
func BenchmarkQueryShapes(b *testing.B) {
	c, run := queryShapes(b)
	q3 := naiveQ3(c.Database(), scanBenchConfig().Warehouses, tpcc.Q3StatePrefix, tpcc.Q3SinceYear)
	for i := range 4 {
		if err := run(i, q3); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := next.Add(1); q <= int64(b.N); q = next.Add(1) {
				if err := run(int(q%4), q3); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
	}
}

// BenchmarkQueryShapesChurn runs BenchmarkQueryShapes's four statements
// in turn from one goroutine, each after one write: a new-order before
// Q3, a payment (a c_balance write) before the others, the top-N's into
// the district and c_id range it reads. The grouped statement, Q3 and
// the top-N read the changed chunk, so they measure the engine answering
// a repeated query over data that changes a little. The LIKE count reads
// only c_state, which no transaction writes, so it replays its kept
// record: one of the four timed statements measures a replay. Every
// answer is checked against an invariant the writes keep: the group
// counts sum to the customers, the LIKE count and the top-N do not move,
// and Q3 equals naiveQ3 recomputed, off the timer, after each insert. It
// reports queries/s, and allocs/op under -benchmem.
func BenchmarkQueryShapesChurn(b *testing.B) {
	c, run := queryShapes(b)
	cfg := scanBenchConfig()
	q3 := naiveQ3(c.Database(), cfg.Warehouses, tpcc.Q3StatePrefix, tpcc.Q3SinceYear)
	for i := range 4 {
		if err := run(i, q3); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for q := range b.N {
		w, d, cust := q%cfg.Warehouses, 1+q/cfg.Warehouses%cfg.Districts, 1+q*7%cfg.CustomersPerDistrict
		if q%4 == 3 {
			w, d, cust = 1, 2, 1+q*7%(2*queryShapesLimit) // topnText(1, 2, queryShapesLimit)'s rows
		}
		var ok bool
		var err error
		if q%4 == 2 {
			ok, err = c.NewOrder(anydb.NewOrder{Warehouse: w, District: d, Customer: cust,
				Lines: []anydb.OrderLine{{Item: 1 + q%cfg.Items, Qty: 1, SupplyWarehouse: w}}})
			b.StopTimer()
			q3 = naiveQ3(c.Database(), cfg.Warehouses, tpcc.Q3StatePrefix, tpcc.Q3SinceYear)
			b.StartTimer()
		} else {
			ok, err = c.Payment(anydb.Payment{Warehouse: w, District: d, Customer: cust, Amount: 1})
		}
		if err != nil || !ok {
			b.Fatalf("write before statement %d: committed %v, %v", q%4, ok, err)
		}
		if err := run(q%4, q3); err != nil {
			b.Fatal(err)
		}
	}
	if elapsed := b.Elapsed(); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
	}
}

// queryShapesLimit is the LIMIT of queryShapes's top-N.
const queryShapesLimit = 200

// queryShapes opens a cluster on scanBenchConfig and returns it with a
// runner of the four olap_shared statements: run(i, q3) runs statement
// i and checks its answer — the group counts sum to the customers, the
// LIKE count is the naive one, Q3 is q3, and the top-N lists c_id 2·limit
// down to limit+1.
func queryShapes(b *testing.B) (*anydb.Cluster, func(i int, q3 int64) error) {
	cfg := scanBenchConfig()
	c, err := anydb.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	ctx := context.Background()
	const limit = queryShapesLimit
	shapes := []string{
		`SELECT c_state, COUNT(*), SUM(c_balance) FROM customer GROUP BY c_state`,
		`SELECT COUNT(*) FROM customer WHERE c_state LIKE 'A%'`,
		tpcc.Q3SQL,
		topnText(1, 2, limit),
	}
	db := c.Database()
	customers := int64(cfg.Warehouses * cfg.Districts * cfg.CustomersPerDistrict)
	var like int64
	for w := range cfg.Warehouses {
		ct := db.Partition(w).Table(tpcc.TCustomer)
		sc := ct.Schema.MustCol("c_state")
		ct.Scan(func(_ int32, r storage.Row) bool {
			if strings.HasPrefix(r[sc].S, "A") {
				like++
			}
			return true
		})
	}
	return c, func(i int, q3 int64) error {
		if i == 1 || i == 2 {
			want := [...]int64{1: like, 2: q3}[i]
			var n int64
			if err := c.QueryRow(ctx, shapes[i]).Scan(&n); err != nil {
				return err
			}
			if n != want {
				return fmt.Errorf("shape %d: count %d, want %d", i, n, want)
			}
			return nil
		}
		rows, err := c.Query(ctx, shapes[i])
		if err != nil {
			return err
		}
		defer rows.Close()
		var sum, id, n int64
		var s string
		var f float64
		for rows.Next() {
			if i == 0 {
				err = rows.Scan(&s, &n, &f)
				sum += n
			} else {
				err = rows.Scan(&id, &s, &f)
				if id != 2*limit-sum {
					return fmt.Errorf("top-N row %d is c_id %d, want %d", sum, id, 2*limit-sum)
				}
				sum++
			}
			if err != nil {
				return err
			}
		}
		if want := [...]int64{customers, 0, 0, limit}[i]; sum != want {
			return fmt.Errorf("shape %d: %d counted, want %d", i, sum, want)
		}
		return nil
	}
}

// BenchmarkGroupedAgg measures grouped-aggregate throughput on a
// dictionary-encoded group column, which takes the dense fast path
// (packed group codes index a flat accumulator, one bounds-checked
// array access per row), at Conc 1/8/32; the queries/s metric is the
// headline.
func BenchmarkGroupedAgg(b *testing.B) {
	const query = "SELECT c_state, COUNT(*) FROM customer GROUP BY c_state"
	countGroups := func(c *anydb.Cluster, ctx context.Context) (groups int64, total int64, err error) {
		rows, err := c.Query(ctx, query)
		if err != nil {
			return 0, 0, err
		}
		defer rows.Close()
		for rows.Next() {
			var state string
			var n int64
			if err := rows.Scan(&state, &n); err != nil {
				return 0, 0, err
			}
			groups++
			total += n
		}
		return groups, total, nil
	}
	for _, conc := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("Conc%d", conc), func(b *testing.B) {
			c, err := anydb.Open(scanBenchConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			ctx := context.Background()
			// Warm-up pass builds the columnar chunks and
			// dictionaries; the timed region measures steady state.
			wantGroups, wantTotal, err := countGroups(c, ctx)
			if err != nil {
				b.Fatal(err)
			}
			if wantGroups == 0 || wantTotal == 0 {
				b.Fatalf("warm-up returned %d groups / %d rows", wantGroups, wantTotal)
			}
			b.ResetTimer()
			b.ReportAllocs()
			var next atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < conc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						groups, total, err := countGroups(c, ctx)
						if err != nil {
							b.Error(err)
							return
						}
						if groups != wantGroups || total != wantTotal {
							b.Errorf("got %d groups / %d rows, want %d / %d",
								groups, total, wantGroups, wantTotal)
							return
						}
					}
				}()
			}
			wg.Wait()
			if elapsed := time.Since(start); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
			}
		})
	}
}

// BenchmarkPaymentPipelined drives the same payments from the same
// number of goroutines, but each worker opens a Session and keeps a
// window of submissions in flight (SubmitPayment + deferred Wait)
// instead of blocking per transaction — the async-session idiom this
// API exists for.
func BenchmarkPaymentPipelined(b *testing.B) {
	c := openBenchCluster(b)
	const window = 64
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	var wg sync.WaitGroup
	for g := 0; g < submitWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := c.Session()
			defer s.Close()
			futs := make([]*anydb.Future, 0, window)
			flush := func() {
				for _, f := range futs {
					if _, err := f.Wait(ctx); err != nil {
						b.Error(err)
					}
				}
				futs = futs[:0]
			}
			for i := g; i < b.N; i += submitWorkers {
				f, err := s.SubmitPayment(ctx, anydb.Payment{
					Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
				})
				if err != nil {
					b.Error(err)
					return
				}
				if futs = append(futs, f); len(futs) == window {
					flush()
				}
			}
			flush()
		}(g)
	}
	wg.Wait()
}

// BenchmarkPaymentDurable is the pipelined payment path with the
// group-commit WAL on (Durability Batch): one shared log, fsynced by
// the log-writer goroutine while the next group queues. Compare against
// BenchmarkPaymentPipelined for the durability tax; txns/fsync is the
// realized group size (Stats().WALRecords / WALSyncs). allocs/op stays
// bounded (the log's group buffers amortize, the durable notice rides a
// pooled event), it is not required to hit zero.
func BenchmarkPaymentDurable(b *testing.B) {
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 4, CustomersPerDistrict: 100,
		InitialOrdersPerDist: 10, Items: 100,
		Durability: anydb.DurabilityBatch, WALDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	const window = 64
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	var wg sync.WaitGroup
	for g := 0; g < submitWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := c.Session()
			defer s.Close()
			futs := make([]*anydb.Future, 0, window)
			flush := func() {
				for _, f := range futs {
					if _, err := f.Wait(ctx); err != nil {
						b.Error(err)
					}
				}
				futs = futs[:0]
			}
			for i := g; i < b.N; i += submitWorkers {
				f, err := s.SubmitPayment(ctx, anydb.Payment{
					Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
				})
				if err != nil {
					b.Error(err)
					return
				}
				if futs = append(futs, f); len(futs) == window {
					flush()
				}
			}
			flush()
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	if st := c.Stats(); st.WALSyncs > 0 {
		b.ReportMetric(float64(st.WALRecords)/float64(st.WALSyncs), "txns/fsync")
	}
}
