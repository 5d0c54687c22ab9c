package plan_test

import (
	"math"
	"testing"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/plan"
	"anydb/internal/sim"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

func planCfg() tpcc.Config {
	return tpcc.Config{Warehouses: 4, Districts: 2, Customers: 100,
		Items: 40, InitOrders: 100, Seed: 8}.WithDefaults()
}

// sqlHarness runs a compiled SQL plan on a sim cluster.
type sqlHarness struct {
	cl     *core.SimCluster
	topo   *core.Topology
	db     *storage.Database
	cfg    tpcc.Config
	qoAC   core.ACID
	comp   []core.ACID
	result *olap.QueryResult
}

func newSQLHarness(t *testing.T) *sqlHarness {
	t.Helper()
	cfg := planCfg()
	db, _ := tpcc.NewDatabase(cfg)
	topo := core.NewTopology(db)
	s1 := topo.AddServer(4)
	s2 := topo.AddServer(4)
	for w := 0; w < cfg.Warehouses; w++ {
		topo.SetOwner(w, s1[w%4])
	}
	h := &sqlHarness{topo: topo, db: db, cfg: cfg, qoAC: s2[3], comp: s2[:3]}
	qo := &plan.QO{Topo: topo}
	h.cl = core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		ac.Register(core.EvInstallOp, &olap.Worker{DB: db})
		ac.Register(core.EvQuery, qo)
	})
	h.cl.SetClient(func(_ sim.Time, ev *core.Event) {
		if r, ok := ev.Payload.(*olap.QueryResult); ok {
			h.result = r
		}
	})
	return h
}

func (h *sqlHarness) compile(t *testing.T, text string, qid core.QueryID) *plan.GenericPlan {
	t.Helper()
	q, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	parts := make([]int, h.cfg.Warehouses)
	for i := range parts {
		parts[i] = i
	}
	p, err := plan.CompileSQL(h.db.Catalog, q, qid, parts, h.comp, core.ClientAC)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func (h *sqlHarness) run(t *testing.T, text string) *olap.QueryResult {
	t.Helper()
	p := h.compile(t, text, 1)
	h.result = nil
	h.cl.Inject(h.qoAC, &core.Event{Kind: core.EvQuery, Query: 1, Payload: p}, 0)
	h.cl.Run()
	if h.result == nil {
		t.Fatal("no result")
	}
	return h.result
}

// resultRows materializes a sink result set (copies, so freeing the
// batches afterwards would be safe).
func resultRows(res *olap.QueryResult) []storage.Row {
	var out []storage.Row
	for _, b := range res.Batches {
		for r := 0; r < b.Len(); r++ {
			out = append(out, b.Row(r))
		}
	}
	return out
}

// countOf extracts the single scalar of a global COUNT(*) result.
func countOf(t *testing.T, res *olap.QueryResult) int64 {
	t.Helper()
	rows := resultRows(res)
	if res.Rows != 1 || len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("count result shape: Rows=%d, %d materialized", res.Rows, len(rows))
	}
	if len(res.Cols) != 1 || res.Cols[0] != "count" {
		t.Fatalf("count result cols = %v", res.Cols)
	}
	return rows[0][0].I
}

// TestSQLQ3MatchesOracle: the paper's query expressed in SQL produces the
// oracle count through the full parse→plan→event-stream pipeline.
func TestSQLQ3MatchesOracle(t *testing.T) {
	h := newSQLHarness(t)
	res := h.run(t, tpcc.Q3SQL)
	want := tpcc.ReferenceQ3(h.db, h.cfg)
	if want == 0 {
		t.Fatal("oracle empty")
	}
	if got := countOf(t, res); got != want {
		t.Fatalf("count = %d, oracle %d", got, want)
	}
}

func TestSQLSingleTableCount(t *testing.T) {
	h := newSQLHarness(t)
	res := h.run(t, "SELECT COUNT(*) FROM orders WHERE o_entry_d >= 2010")
	// Reference.
	var want int64
	for w := 0; w < h.cfg.Warehouses; w++ {
		ot := h.db.Partition(w).Table(tpcc.TOrders)
		col := ot.Schema.MustCol("o_entry_d")
		ot.Scan(func(_ int32, r storage.Row) bool {
			if r[col].I >= 2010 {
				want++
			}
			return true
		})
	}
	if got := countOf(t, res); got != want || want == 0 {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

func TestSQLProjectionCollect(t *testing.T) {
	h := newSQLHarness(t)
	res := h.run(t, "SELECT c_id, c_last FROM customer WHERE c_id <= 3 AND c_w_id = 1 AND c_d_id = 1")
	rows := resultRows(res)
	if res.Rows != 3 || len(rows) != 3 {
		t.Fatalf("rows=%d materialized=%d, want 3", res.Rows, len(rows))
	}
	if len(rows[0]) != 2 {
		t.Fatalf("projection arity = %d", len(rows[0]))
	}
	if len(res.Cols) != 2 || res.Cols[0] != "c_id" || res.Cols[1] != "c_last" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if res.Truncated {
		t.Fatal("tiny result truncated")
	}
}

func TestSQLJoinWithEquality(t *testing.T) {
	h := newSQLHarness(t)
	// Orders of one specific customer, via join.
	res := h.run(t, `SELECT COUNT(*)
		FROM customer
		JOIN orders ON customer.c_w_id = orders.o_w_id
			AND customer.c_d_id = orders.o_d_id
			AND customer.c_id = orders.o_c_id
		WHERE c_w_id = 2 AND c_d_id = 1 AND c_id = 7`)
	var want int64
	ot := h.db.Partition(2).Table(tpcc.TOrders)
	dc, cc2 := ot.Schema.MustCol("o_d_id"), ot.Schema.MustCol("o_c_id")
	ot.Scan(func(_ int32, r storage.Row) bool {
		if r[dc].I == 1 && r[cc2].I == 7 {
			want++
		}
		return true
	})
	if got := countOf(t, res); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

// TestSQLGroupedAggregates: single-table grouped aggregates push down
// into the shared scan; partials from all partitions merge in the sink.
func TestSQLGroupedAggregates(t *testing.T) {
	h := newSQLHarness(t)
	res := h.run(t, `SELECT o_d_id, COUNT(*), SUM(o_ol_cnt), MIN(o_id), MAX(o_id), AVG(o_ol_cnt)
		FROM orders WHERE o_entry_d >= 2007 GROUP BY o_d_id ORDER BY o_d_id`)
	// Reference.
	type acc struct {
		n, sum, min, max int64
	}
	ref := map[int64]*acc{}
	for w := 0; w < h.cfg.Warehouses; w++ {
		ot := h.db.Partition(w).Table(tpcc.TOrders)
		dc := ot.Schema.MustCol("o_d_id")
		ec := ot.Schema.MustCol("o_entry_d")
		oc := ot.Schema.MustCol("o_ol_cnt")
		ic := ot.Schema.MustCol("o_id")
		ot.Scan(func(_ int32, r storage.Row) bool {
			if r[ec].I < 2007 {
				return true
			}
			a := ref[r[dc].I]
			if a == nil {
				a = &acc{min: math.MaxInt64, max: math.MinInt64}
				ref[r[dc].I] = a
			}
			a.n++
			a.sum += r[oc].I
			if r[ic].I < a.min {
				a.min = r[ic].I
			}
			if r[ic].I > a.max {
				a.max = r[ic].I
			}
			return true
		})
	}
	rows := resultRows(res)
	if len(rows) != len(ref) || len(ref) == 0 {
		t.Fatalf("groups = %d, want %d", len(rows), len(ref))
	}
	wantCols := []string{"o_d_id", "count", "sum_o_ol_cnt", "min_o_id", "max_o_id", "avg_o_ol_cnt"}
	for i, c := range wantCols {
		if res.Cols[i] != c {
			t.Fatalf("cols = %v, want %v", res.Cols, wantCols)
		}
	}
	prev := int64(math.MinInt64)
	for _, r := range rows {
		d := r[0].I
		if d < prev {
			t.Fatalf("ORDER BY o_d_id violated: %d after %d", d, prev)
		}
		prev = d
		a := ref[d]
		if a == nil {
			t.Fatalf("unexpected group %d", d)
		}
		if r[1].I != a.n || r[2].I != a.sum || r[3].I != a.min || r[4].I != a.max {
			t.Fatalf("group %d = %+v, want %+v", d, r, a)
		}
		wantAvg := float64(a.sum) / float64(a.n)
		if math.Abs(r[5].F-wantAvg) > 1e-9 {
			t.Fatalf("group %d avg = %v, want %v", d, r[5].F, wantAvg)
		}
	}
}

// TestSQLOrderByCountLimit: ORDER BY an aggregate, descending, limited.
func TestSQLOrderByCountLimit(t *testing.T) {
	h := newSQLHarness(t)
	res := h.run(t, `SELECT c_d_id, COUNT(*) FROM customer GROUP BY c_d_id ORDER BY COUNT(*) DESC, c_d_id LIMIT 1`)
	rows := resultRows(res)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 (LIMIT)", len(rows))
	}
	// Every district has the same customer count, so the tiebreak
	// (ascending c_d_id) must pick district 1.
	if rows[0][0].I != 1 {
		t.Fatalf("top district = %d, want 1", rows[0][0].I)
	}
	wantN := int64(h.cfg.Warehouses) * int64(h.cfg.Customers)
	if rows[0][1].I != wantN {
		t.Fatalf("count = %d, want %d", rows[0][1].I, wantN)
	}
}

// TestSQLFloatAggregates: SUM/AVG over a float column keep float typing
// end to end (including sums that are exactly zero).
func TestSQLFloatAggregates(t *testing.T) {
	h := newSQLHarness(t)
	res := h.run(t, "SELECT SUM(c_balance), AVG(c_balance) FROM customer")
	var sum float64
	var n int64
	for w := 0; w < h.cfg.Warehouses; w++ {
		ct := h.db.Partition(w).Table(tpcc.TCustomer)
		bc := ct.Schema.MustCol("c_balance")
		ct.Scan(func(_ int32, r storage.Row) bool {
			sum += r[bc].F
			n++
			return true
		})
	}
	rows := resultRows(res)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if math.Abs(rows[0][0].F-sum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", rows[0][0].F, sum)
	}
	if math.Abs(rows[0][1].F-sum/float64(n)) > 1e-9 {
		t.Fatalf("avg = %v, want %v", rows[0][1].F, sum/float64(n))
	}
}

// TestSQLAggregateOverJoin: grouped aggregation over a join output folds
// raw rows in the sink (no pushdown possible).
func TestSQLAggregateOverJoin(t *testing.T) {
	h := newSQLHarness(t)
	res := h.run(t, `SELECT o_d_id, COUNT(*)
		FROM customer
		JOIN orders ON customer.c_w_id = orders.o_w_id
			AND customer.c_d_id = orders.o_d_id
			AND customer.c_id = orders.o_c_id
		WHERE c_state LIKE 'A%'
		GROUP BY o_d_id ORDER BY o_d_id`)
	ref := map[int64]int64{}
	for w := 0; w < h.cfg.Warehouses; w++ {
		cust := make(map[storage.Key]bool)
		ct := h.db.Partition(w).Table(tpcc.TCustomer)
		sc := ct.Schema.MustCol("c_state")
		wc, dc, cc2 := ct.Schema.MustCol("c_w_id"), ct.Schema.MustCol("c_d_id"), ct.Schema.MustCol("c_id")
		ct.Scan(func(_ int32, r storage.Row) bool {
			if r[sc].S[:1] == "A" {
				cust[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[cc2].I)] = true
			}
			return true
		})
		ot := h.db.Partition(w).Table(tpcc.TOrders)
		ow, od, oc := ot.Schema.MustCol("o_w_id"), ot.Schema.MustCol("o_d_id"), ot.Schema.MustCol("o_c_id")
		ot.Scan(func(_ int32, r storage.Row) bool {
			if cust[storage.MakeKey(int(r[ow].I), int(r[od].I), r[oc].I)] {
				ref[r[od].I]++
			}
			return true
		})
	}
	rows := resultRows(res)
	if len(rows) != len(ref) || len(ref) == 0 {
		t.Fatalf("groups = %d, want %d", len(rows), len(ref))
	}
	for _, r := range rows {
		if ref[r[0].I] != r[1].I {
			t.Fatalf("group %d count = %d, want %d", r[0].I, r[1].I, ref[r[0].I])
		}
	}
}

func TestCompileErrors(t *testing.T) {
	h := newSQLHarness(t)
	parts := []int{0}
	for _, text := range []string{
		"SELECT COUNT(*) FROM nosuch",
		"SELECT COUNT(*) FROM customer WHERE nope = 1",
		"SELECT COUNT(*) FROM customer JOIN orders ON customer.c_id = orders.nope",
		"SELECT COUNT(*) FROM customer JOIN item ON customer.c_id = item.i_id JOIN orders ON orders.o_w_id = orders.o_w_id", // orders unconnected to chain
		"SELECT COUNT(*) FROM customer WHERE c_last >= 5",                                                                   // >= on string
		"SELECT nope FROM customer",
		"SELECT c_id, COUNT(*) FROM customer",                                                                // non-grouped column with aggregate
		"SELECT c_id FROM customer GROUP BY c_id",                                                            // GROUP BY without aggregates
		"SELECT SUM(c_last) FROM customer",                                                                   // SUM over string
		"SELECT COUNT(*) FROM customer ORDER BY c_id",                                                        // ORDER BY term not in SELECT
		"SELECT c_id FROM customer WHERE c_last < 5",                                                         // int comparison on string column
		"SELECT COUNT(*) FROM customer JOIN orders ON customer.c_id = orders.o_c_id GROUP BY c_w_id, o_w_id", // fine shape...
	} {
		q, err := sql.Parse(text)
		if err != nil {
			continue // parser-level rejection also fine
		}
		_, cerr := plan.CompileSQL(h.db.Catalog, q, 1, parts, h.comp, core.ClientAC)
		if text == "SELECT COUNT(*) FROM customer JOIN orders ON customer.c_id = orders.o_c_id GROUP BY c_w_id, o_w_id" {
			if cerr != nil {
				t.Errorf("rejected valid query: %v", cerr)
			}
			continue
		}
		if cerr == nil {
			t.Errorf("compiled %q", text)
		}
	}
}

// TestPlanDescribeGolden pins the routed shape of representative plans:
// join ordering, stream wiring, pushdown vs fold vs collect sinks.
func TestPlanDescribeGolden(t *testing.T) {
	h := newSQLHarness(t)
	cases := []struct {
		name, query, want string
	}{
		{"join_count", `SELECT COUNT(*)
			FROM orders
			JOIN customer ON customer.c_w_id = orders.o_w_id
				AND customer.c_d_id = orders.o_d_id
				AND customer.c_id = orders.o_c_id
			WHERE c_state LIKE 'A%' AND o_entry_d >= 2007`,
			""},
		{"group_pushdown", `SELECT o_d_id, COUNT(*), SUM(o_ol_cnt)
			FROM orders GROUP BY o_d_id ORDER BY COUNT(*) DESC LIMIT 3`,
			""},
		{"projection_order_limit", `SELECT c_id, c_last FROM customer
			WHERE c_d_id = 1 ORDER BY c_last DESC LIMIT 10`,
			""},
	}
	// Golden strings below are derived from the harness topology: ACs
	// 0-7 (two servers of four), compute = {4,5,6}, qid = 7.
	cases[0].want = "scan customer parts=4 filters=1 cols=[c_d_id c_id c_w_id] -> s449@ac4\n" +
		"scan orders parts=4 filters=1 cols=[o_c_id o_d_id o_w_id] -> s450@ac4\n" +
		"join1 build=s449[c_w_id c_d_id c_id] probe=s450[o_w_id o_d_id o_c_id] @ac4 -> s480@ac4\n" +
		"sink in=s480 fold group=[] aggs=[count] out=[count] @ac4\n"
	cases[1].want = "scan orders parts=4 pushdown group=[o_d_id] dict aggs=[count sum(o_ol_cnt)] -> s449@ac4\n" +
		"sink in=s449 merge group=[o_d_id] aggs=[count sum(o_ol_cnt)] order=[{1 true}] limit=3 out=[o_d_id count sum_o_ol_cnt] @ac4\n"
	cases[2].want = "scan customer parts=4 filters=1 cols=[c_id c_last] -> s449@ac4\n" +
		"sink in=s449 collect cols=[c_id c_last] order=[{1 true}] limit=10 out=[c_id c_last] @ac4\n"
	for _, c := range cases {
		p := h.compile(t, c.query, 7)
		if got := p.Describe(); got != c.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", c.name, got, c.want)
		}
	}
}

// TestQ3DescribeGolden pins the routed shape of the paper's query — the
// plan the public OpenOrders wrappers and the virtual-time figures both
// run: customer is the first build side, join1 runs on compute[0], and
// join2 plus the sink on compute[1] (the placement Figure 6's
// join1/build and join1/probe timings depend on).
func TestQ3DescribeGolden(t *testing.T) {
	h := newSQLHarness(t)
	want := "scan customer parts=4 filters=1 cols=[c_d_id c_id c_w_id] -> s449@ac4\n" +
		"scan orders parts=4 filters=1 cols=[o_c_id o_d_id o_id o_w_id] -> s450@ac4\n" +
		"scan new_order parts=4 cols=[no_d_id no_o_id no_w_id] -> s451@ac5\n" +
		"join1 build=s449[c_w_id c_d_id c_id] probe=s450[o_w_id o_d_id o_c_id] @ac4 -> s480@ac5\n" +
		"join2 build=s480[o_w_id o_d_id o_id] probe=s451[no_w_id no_d_id no_o_id] @ac5 -> s481@ac5\n" +
		"sink in=s481 fold group=[] aggs=[count] out=[count] @ac5\n"
	if got := h.compile(t, tpcc.Q3SQL, 7).Describe(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

// TestPlannerOrdersBySelectivity: with stats present, the most selective
// table becomes the first build side.
func TestPlannerOrdersBySelectivity(t *testing.T) {
	h := newSQLHarness(t)
	// customer filtered to ~1/26 is far smaller than orders: even when
	// the tables are listed in the "wrong" order, customer must build.
	p := h.compile(t, `SELECT COUNT(*)
		FROM orders
		JOIN customer ON customer.c_w_id = orders.o_w_id
			AND customer.c_d_id = orders.o_d_id
			AND customer.c_id = orders.o_c_id
		WHERE c_state LIKE 'A%'`, 2)
	desc := p.Describe()
	if len(desc) == 0 || desc[:13] != "scan customer" {
		t.Fatalf("build side not customer:\n%s", desc)
	}
	// And it runs correctly despite the reordering.
	res := h.run(t, `SELECT COUNT(*)
		FROM orders
		JOIN customer ON customer.c_w_id = orders.o_w_id
			AND customer.c_d_id = orders.o_d_id
			AND customer.c_id = orders.o_c_id
		WHERE c_state LIKE 'A%'`)
	var want int64
	for w := 0; w < h.cfg.Warehouses; w++ {
		cust := make(map[storage.Key]bool)
		ct := h.db.Partition(w).Table(tpcc.TCustomer)
		sc := ct.Schema.MustCol("c_state")
		wc, dc, cc2 := ct.Schema.MustCol("c_w_id"), ct.Schema.MustCol("c_d_id"), ct.Schema.MustCol("c_id")
		ct.Scan(func(_ int32, r storage.Row) bool {
			if r[sc].S[:1] == "A" {
				cust[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[cc2].I)] = true
			}
			return true
		})
		ot := h.db.Partition(w).Table(tpcc.TOrders)
		ow, od, oc := ot.Schema.MustCol("o_w_id"), ot.Schema.MustCol("o_d_id"), ot.Schema.MustCol("o_c_id")
		ot.Scan(func(_ int32, r storage.Row) bool {
			if cust[storage.MakeKey(int(r[ow].I), int(r[od].I), r[oc].I)] {
				want++
			}
			return true
		})
	}
	if got := countOf(t, res); got != want || want == 0 {
		t.Fatalf("count = %d, want %d", got, want)
	}
}
