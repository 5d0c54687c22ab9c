package olap_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/plan"
	"anydb/internal/sim"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// memoStatements are the repo benchmark's four query shapes (its q3 is
// tpcc.Q3SQL): no filter, a dictionary-bitset filter, a top-N over code
// and frame-of-reference ranges, and the three-way join whose orders and
// new_order scans carry the joins' key filters. Three more groupings
// follow: a filtered one with MIN, MAX and AVG, and one over each of the
// tables inserts and deletes write, whose partials hang on slot lists.
var memoStatements = []string{
	`SELECT c_state, COUNT(*), SUM(c_balance) FROM customer GROUP BY c_state`,
	`SELECT COUNT(*) FROM customer WHERE c_state LIKE 'A%'`,
	`SELECT c_id, c_last, c_balance FROM customer
		WHERE c_w_id = 1 AND c_d_id = 2 AND c_id <= 400 ORDER BY c_id DESC LIMIT 200`,
	tpcc.Q3SQL,
	`SELECT c_d_id, MIN(c_balance), MAX(c_balance), AVG(c_payment_cnt), COUNT(*)
		FROM customer WHERE c_state LIKE 'A%' GROUP BY c_d_id`,
	`SELECT o_d_id, COUNT(*) FROM orders GROUP BY o_d_id`,
	`SELECT no_d_id, COUNT(*) FROM new_order GROUP BY no_d_id`,
}

// memoGrouped marks the statements whose answer has no row order.
var memoGrouped = []bool{true, false, false, false, true, true, true}

// memoMerges marks the statements whose sink merges partials: every
// single-table aggregate. The others are the top-N, which collects, and
// Q3 (memoQ3), whose sink folds join output.
var memoMerges = []bool{true, true, false, false, true, true, true}

// memoQ3 is Q3's index in memoStatements.
const memoQ3 = 3

// TestMemoOracleBesideWrites runs every statement twice after each of a
// series of writes to the scanned tables, on one cluster whose Workers
// keep their selection memos throughout, and checks every answer against
// a naive evaluation over the row heaps. The writes cover what can
// invalidate a memo entry: a filtered column (c_state, which also moves
// the customer build and so the orders key filter), a column no filter
// reads (c_balance), an insert into orders and new_order (the slot list
// of their tail chunks), new_order inserts that fill its tail chunk and
// then open a new one, a new_order delete, and a ResetRows +
// InstallRows round trip of three tables, and a c_state swap that keeps
// the size of partition 1's share of Q3's build but changes its keys.
// The second run of every statement must evaluate, fold and gather no
// chunk — each of its scans replays — and reuse what its joins and sinks
// built from the same batches: a merging sink its merged table, Q3 both
// its builds, and both its joins their kept output (the first join's
// replay is the batches the second build consumed last time). So the
// answers it checks come from the memo and the kept state. The grouped
// statements fold on their first run before any write.
func TestMemoOracleBesideWrites(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 2, Districts: 4, Customers: 1500,
		Items: 40, InitOrders: 1500, Seed: 11}.WithDefaults()
	db, run, work := memoRig(t, cfg)
	check := func(step string) {
		want := naiveAnswers(db, cfg)
		for i, stmt := range memoStatements {
			for pass := range 2 {
				before := work()
				got := run(stmt)
				if g := formatRows(got, memoGrouped[i]); g != want[i] {
					t.Fatalf("after %s, pass %d of statement %d:\n got %s\nwant %s", step, pass, i, g, want[i])
				}
				d := work().Sub(before)
				if pass == 1 && (d.Evals != 0 || d.Folds != 0 || d.Gathered != 0) {
					t.Fatalf("after %s: statement %d evaluated %d chunks, folded %d and gathered %d rows on unchanged data",
						step, i, d.Evals, d.Folds, d.Gathered)
				}
				if pass == 1 && memoMerges[i] && (d.ReusedMerges != 1 || d.Merges != 0) {
					t.Fatalf("after %s: statement %d merged %d times and reused %d merges on unchanged data, want 0 and 1",
						step, i, d.Merges, d.ReusedMerges)
				}
				if pass == 1 && i == memoQ3 && (d.ReusedBuilds != 2 || d.Builds != 0 || d.ReplayedJoins != 2) {
					t.Fatalf("after %s: Q3 built %d joins, reused %d builds and replayed %d joins on unchanged data, want 0, 2 and 2",
						step, d.Builds, d.ReusedBuilds, d.ReplayedJoins)
				}
				if step == "no write" && pass == 0 && memoGrouped[i] && d.Folds == 0 {
					t.Fatalf("statement %d folded no chunk on its first run", i)
				}
			}
		}
	}

	check("no write")
	parts0 := db.Partition(0)
	cust, ord, newOrd := parts0.Table(tpcc.TCustomer), parts0.Table(tpcc.TOrders), parts0.Table(tpcc.TNewOrder)
	stateCol := cust.Schema.MustCol("c_state")

	// A c_state write in one chunk: a customer with an open order since
	// Q3SinceYear joins the build, so Q3 and the orders key filter move.
	slot, open := openOrderCustomer(t, db, 0)
	q3 := tpcc.ReferenceQ3(db, cfg)
	cust.UpdateAt(slot, stateCol, storage.Str(tpcc.Q3StatePrefix+"Q"))
	if tpcc.ReferenceQ3(db, cfg) == q3 {
		t.Fatal("the c_state write left Q3's answer as it was")
	}
	check("a c_state write")

	// A c_state swap in partition 1: a customer with an open order Q3
	// counts joins the build, and one with none leaves it. Partition 1's
	// filtered customer scans keep as many rows, in as many batches of the
	// same lengths, as before; Q3's answer and the c_state groups move.
	cust1 := db.Partition(1).Table(tpcc.TCustomer)
	joins, _ := openOrderCustomer(t, db, 1)
	leaves := idleBuildCustomer(t, db, 1)
	q3 = tpcc.ReferenceQ3(db, cfg)
	cust1.UpdateAt(joins, stateCol, storage.Str(tpcc.Q3StatePrefix+"S"))
	cust1.UpdateAt(leaves, stateCol, storage.Str("ZZ"))
	if tpcc.ReferenceQ3(db, cfg) == q3 {
		t.Fatal("the c_state swap left Q3's answer as it was")
	}
	check("a c_state swap in partition 1")

	// c_balance, which no filter reads, in every customer chunk of both
	// partitions, and in the top-N's range.
	for w := range cfg.Warehouses {
		ct := db.Partition(w).Table(tpcc.TCustomer)
		for ci := range ct.NumColChunks() {
			ct.UpdateAt(int32(ci<<storage.ColChunkShift), tpcc.ColCBalance, storage.Float(float64(100*w+ci)))
		}
	}
	topSlot, _ := db.Partition(1).Table(tpcc.TCustomer).Lookup(tpcc.CustomerKey(1, 2, 399))
	db.Partition(1).Table(tpcc.TCustomer).UpdateAt(topSlot, tpcc.ColCBalance, storage.Float(7))
	check("c_balance writes")

	// A new order and its new_order row, for a customer Q3 counts.
	var aCust int64
	cust.Scan(func(_ int32, r storage.Row) bool {
		if strings.HasPrefix(r[stateCol].S, tpcc.Q3StatePrefix) && r[1].I == 1 {
			aCust = r[2].I
			return false
		}
		return true
	})
	oid := int64(cfg.InitOrders + 1)
	if _, err := ord.Insert(tpcc.OrderKey(0, 1, oid), storage.Row{storage.Int(0), storage.Int(1),
		storage.Int(oid), storage.Int(aCust), storage.Int(tpcc.Q3SinceYear + 3), storage.Int(0), storage.Int(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := newOrd.Insert(tpcc.NewOrderKey(0, 1, oid), storage.Row{storage.Int(0), storage.Int(1), storage.Int(oid)}); err != nil {
		t.Fatal(err)
	}
	check("an order and new_order insert")

	// new_order rows for orders that do not exist, which no join counts,
	// until the tail chunk is full, then one more, alone in a new chunk:
	// every earlier chunk keeps its stamps, and only the chunk count
	// tells that a grouped count's stored partial misses a row.
	insertNewOrder := func() int32 {
		oid++
		slot, err := newOrd.Insert(tpcc.NewOrderKey(0, 2, oid), storage.Row{storage.Int(0), storage.Int(2), storage.Int(oid)})
		if err != nil {
			t.Fatal(err)
		}
		return slot
	}
	for insertNewOrder()%storage.ColChunkRows != storage.ColChunkRows-1 {
	}
	check("filling new_order's tail chunk")
	chunks := newOrd.NumColChunks()
	insertNewOrder()
	if newOrd.NumColChunks() != chunks+1 {
		t.Fatalf("the insert left new_order at %d chunks, want %d", newOrd.NumColChunks(), chunks+1)
	}
	check("a new_order insert into a new chunk")

	// A new_order delete: the open order of the customer written above.
	if !newOrd.Delete(open) {
		t.Fatalf("no new_order row %v", open)
	}
	check("a new_order delete")

	// ResetRows + InstallRows of partition 0's three Q3 tables. The
	// customer snapshot moves one more customer into the build, and the
	// new_order install closes the gap the delete left, so every later
	// row of its chunk changes position.
	slot2, _ := openOrderCustomer(t, db, 0)
	key2 := tpcc.CustomerKey(int(cust.Field(slot2, 0).I), int(cust.Field(slot2, 1).I), int(cust.Field(slot2, 2).I))
	for _, tb := range []*storage.Table{cust, ord, newOrd} {
		keys, rows, keyless := tb.SnapshotRows()
		if tb == cust {
			i := slices.Index(keys, key2)
			rows[i][stateCol] = storage.Str(tpcc.Q3StatePrefix + "R")
		}
		if err := tb.InstallRows(keys, rows, keyless); err != nil {
			t.Fatal(err)
		}
	}
	check("a ResetRows + InstallRows round trip")
}

// memoRig returns a virtual-time cluster over a populated database of
// cfg — one owner AC per warehouse, three compute ACs, every Worker
// keeping its memos and kept state throughout — with run, which plans
// and runs one statement to its answer rows, and work, the sum of every
// Worker's counts.
func memoRig(t *testing.T, cfg tpcc.Config) (*storage.Database, func(string) [][]storage.Value, func() olap.Work) {
	db, _ := tpcc.NewDatabase(cfg)
	topo := core.NewTopology(db)
	owners, compute := topo.AddServer(cfg.Warehouses), topo.AddServer(3)
	for w := range cfg.Warehouses {
		topo.SetOwner(w, owners[w])
	}
	qo := &plan.QO{Topo: topo}
	var workers []*olap.Worker
	cl := core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		w := &olap.Worker{DB: db}
		workers = append(workers, w)
		ac.Register(core.EvInstallOp, w)
		ac.Register(core.EvQuery, qo)
	})
	var res *olap.QueryResult
	cl.SetClient(func(_ sim.Time, ev *core.Event) {
		if r, ok := ev.Payload.(*olap.QueryResult); ok {
			res = r
		}
	})
	parts := make([]int, cfg.Warehouses)
	for w := range parts {
		parts[w] = w
	}
	qid := core.QueryID(0)
	work := func() (sum olap.Work) {
		for _, w := range workers {
			sum = sum.Add(w.Work())
		}
		return sum
	}
	run := func(stmt string) [][]storage.Value {
		q, err := sql.Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		qid++
		p, err := plan.CompileSQL(db.Catalog, q, qid, parts, compute[:2], core.ClientAC)
		if err != nil {
			t.Fatal(err)
		}
		res = nil
		cl.Inject(compute[2], &core.Event{Kind: core.EvQuery, Query: qid, Payload: p}, cl.Sched.Now())
		cl.Run()
		if res == nil {
			t.Fatalf("%s: no result", stmt)
		}
		return resultRows(res)
	}
	return db, run, work
}

// resultRows reads a query result's rows and frees its batches.
func resultRows(res *olap.QueryResult) [][]storage.Value {
	var rows [][]storage.Value
	for _, b := range res.Batches {
		for i := range b.Len() {
			row := make([]storage.Value, len(b.Cols))
			for c := range row {
				row[c] = b.Value(i, c)
			}
			rows = append(rows, row)
		}
		storage.FreeBatch(b)
	}
	return rows
}

// TestMemoReuseWorkCounts counts what replays and kept state leave of a
// query's work. A second Q3 gathers no row on any of its three tables,
// reuses both its builds and replays both joins' kept output: the first
// join's replayed output is the second build's batches of last time. A c_state write in one customer
// chunk, which keeps the build's keys, re-gathers only that partition's
// customer rows, and the customer build is built anew: its batches are
// new. An orders insert that no join keeps re-gathers only that
// partition's joinable orders, and the customer build is reused; the
// first join probes anew, so its output and the second build are new. A
// grouped statement twice reuses its sink's merge, and after a c_balance
// write merges again, re-folding and re-gathering only the written
// partition.
func TestMemoReuseWorkCounts(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 2, Districts: 2, Customers: 1500,
		Items: 40, InitOrders: 1500, Seed: 5}.WithDefaults()
	db, run, work := memoRig(t, cfg)
	query := func(stmt string) olap.Work {
		before := work()
		run(stmt)
		return work().Sub(before)
	}
	want := func(what string, got olap.Work, gathered, builds, reusedBuilds, replayedJoins int) {
		t.Helper()
		if got.Gathered != gathered || got.Builds != builds || got.ReusedBuilds != reusedBuilds || got.ReplayedJoins != replayedJoins {
			t.Fatalf("%s: gathered %d rows, built %d joins, reused %d builds and replayed %d joins, want %d, %d, %d and %d",
				what, got.Gathered, got.Builds, got.ReusedBuilds, got.ReplayedJoins, gathered, builds, reusedBuilds, replayedJoins)
		}
	}
	cust := db.Partition(0).Table(tpcc.TCustomer)
	ord := db.Partition(0).Table(tpcc.TOrders)
	stateCol, yearCol := cust.Schema.MustCol("c_state"), ord.Schema.MustCol("o_entry_d")
	// The rows partition 0's Q3 customer and orders scans keep.
	build := map[storage.Key]bool{}
	cust.Scan(func(_ int32, r storage.Row) bool {
		if strings.HasPrefix(r[stateCol].S, tpcc.Q3StatePrefix) {
			build[tpcc.CustomerKey(int(r[0].I), int(r[1].I), int(r[2].I))] = true
		}
		return true
	})
	joinable := 0
	ord.Scan(func(_ int32, r storage.Row) bool {
		if r[yearCol].I >= tpcc.Q3SinceYear && build[tpcc.CustomerKey(int(r[0].I), int(r[1].I), int(r[3].I))] {
			joinable++
		}
		return true
	})

	if len(build) == 0 || joinable == 0 {
		t.Fatalf("partition 0 keeps %d customers and %d orders for Q3", len(build), joinable)
	}
	first := query(tpcc.Q3SQL)
	if first.Gathered == 0 || first.Builds != 2 {
		t.Fatalf("the first Q3 gathered %d rows and built %d joins", first.Gathered, first.Builds)
	}
	want("a second Q3", query(tpcc.Q3SQL), 0, 0, 2, 2)
	slot := int32(1 << storage.ColChunkShift)
	cust.UpdateAt(slot, stateCol, cust.Field(slot, stateCol))
	want("Q3 after a c_state write in one customer chunk", query(tpcc.Q3SQL), len(build), 2, 0, 0)
	want("Q3 once more", query(tpcc.Q3SQL), 0, 0, 2, 2)
	oid := int64(cfg.InitOrders + 1)
	if _, err := ord.Insert(tpcc.OrderKey(0, 1, oid), storage.Row{storage.Int(0), storage.Int(1),
		storage.Int(oid), storage.Int(1), storage.Int(tpcc.Q3SinceYear - 1), storage.Int(0), storage.Int(5)}); err != nil {
		t.Fatal(err)
	}
	want("Q3 after an orders insert no join keeps", query(tpcc.Q3SQL), joinable, 1, 1, 0)

	group := memoStatements[0]
	merged := query(group)
	if merged.Merges != 1 || merged.ReusedMerges != 0 {
		t.Fatalf("the first grouped statement merged %d times and reused %d merges", merged.Merges, merged.ReusedMerges)
	}
	again := query(group)
	if again.Merges != 0 || again.ReusedMerges != 1 || again.Gathered != 0 || again.Folds != 0 {
		t.Fatalf("the grouped statement again merged %d times, reused %d merges, gathered %d rows and folded %d chunks; want a reused merge",
			again.Merges, again.ReusedMerges, again.Gathered, again.Folds)
	}
	cust.UpdateAt(slot, tpcc.ColCBalance, storage.Float(3))
	paid := query(group)
	if paid.Merges != 1 || paid.ReusedMerges != 0 || paid.Folds != cust.NumColChunks() || paid.Gathered != len(stateGroups(cust)) {
		t.Fatalf("the grouped statement after a c_balance write merged %d times, reused %d merges, folded %d chunks and gathered %d rows; want 1, 0, %d and %d",
			paid.Merges, paid.ReusedMerges, paid.Folds, paid.Gathered, cust.NumColChunks(), len(stateGroups(cust)))
	}
}

// stateGroups returns the c_state groups of customer table t.
func stateGroups(t *storage.Table) map[string]bool {
	col, groups := t.Schema.MustCol("c_state"), map[string]bool{}
	t.Scan(func(_ int32, r storage.Row) bool {
		groups[r[col].S] = true
		return true
	})
	return groups
}

// openOrderCustomer returns the heap slot of a customer of warehouse w
// outside Q3's build (its state lacks the prefix) that has an open order
// Q3 would count, and that order's new_order key.
func openOrderCustomer(t *testing.T, db *storage.Database, w int) (int32, storage.Key) {
	t.Helper()
	p := db.Partition(w)
	cust, ord, newOrd := p.Table(tpcc.TCustomer), p.Table(tpcc.TOrders), p.Table(tpcc.TNewOrder)
	stateCol, yearCol := cust.Schema.MustCol("c_state"), ord.Schema.MustCol("o_entry_d")
	var slot int32
	var open storage.Key
	found := false
	newOrd.Scan(func(_ int32, r storage.Row) bool {
		k := tpcc.OrderKey(int(r[0].I), int(r[1].I), r[2].I)
		os, ok := ord.Lookup(k)
		if !ok || ord.Field(os, yearCol).I < tpcc.Q3SinceYear {
			return true
		}
		cs, ok := cust.Lookup(tpcc.CustomerKey(int(r[0].I), int(r[1].I), int(ord.Field(os, 3).I)))
		if ok && !strings.HasPrefix(cust.Field(cs, stateCol).S, tpcc.Q3StatePrefix) {
			slot, open, found = cs, tpcc.NewOrderKey(int(r[0].I), int(r[1].I), r[2].I), true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no customer outside the build has an open order Q3 counts")
	}
	return slot, open
}

// idleBuildCustomer returns the heap slot of a customer of warehouse w in
// Q3's build (its state has the prefix) with no open order Q3 counts.
func idleBuildCustomer(t *testing.T, db *storage.Database, w int) int32 {
	t.Helper()
	p := db.Partition(w)
	cust, ord, newOrd := p.Table(tpcc.TCustomer), p.Table(tpcc.TOrders), p.Table(tpcc.TNewOrder)
	stateCol, yearCol := cust.Schema.MustCol("c_state"), ord.Schema.MustCol("o_entry_d")
	counted := map[storage.Key]bool{}
	newOrd.Scan(func(_ int32, r storage.Row) bool {
		os, ok := ord.Lookup(tpcc.OrderKey(int(r[0].I), int(r[1].I), r[2].I))
		if ok && ord.Field(os, yearCol).I >= tpcc.Q3SinceYear {
			counted[tpcc.CustomerKey(int(r[0].I), int(r[1].I), int(ord.Field(os, 3).I))] = true
		}
		return true
	})
	slot, found := int32(0), false
	cust.Scan(func(s int32, r storage.Row) bool {
		if strings.HasPrefix(r[stateCol].S, tpcc.Q3StatePrefix) && !counted[tpcc.CustomerKey(int(r[0].I), int(r[1].I), int(r[2].I))] {
			slot, found = s, true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("every customer in the build has an open order Q3 counts")
	}
	return slot
}

// naiveAnswers evaluates memoStatements over the row heaps, formatted
// like formatRows formats the engine's answers.
func naiveAnswers(db *storage.Database, cfg tpcc.Config) []string {
	type group struct {
		n   int64
		sum float64
	}
	type dgroup struct {
		n, pays  int64
		min, max float64
	}
	groups := map[string]*group{}
	dgroups := map[int64]*dgroup{}
	orders, newOrders := map[int64]int64{}, map[int64]int64{}
	var like int64
	var top [][]storage.Value
	for w := range db.NumPartitions() {
		db.Partition(w).Table(tpcc.TOrders).Scan(func(_ int32, r storage.Row) bool {
			orders[r[1].I]++
			return true
		})
		db.Partition(w).Table(tpcc.TNewOrder).Scan(func(_ int32, r storage.Row) bool {
			newOrders[r[1].I]++
			return true
		})
		ct := db.Partition(w).Table(tpcc.TCustomer)
		sc := ct.Schema.MustCol("c_state")
		ct.Scan(func(_ int32, r storage.Row) bool {
			st := r[sc].S
			g := groups[st]
			if g == nil {
				g = &group{}
				groups[st] = g
			}
			g.n++
			g.sum += r[tpcc.ColCBalance].F
			if strings.HasPrefix(st, "A") {
				like++
				bal := r[tpcc.ColCBalance].F
				d := dgroups[r[1].I]
				if d == nil {
					d = &dgroup{min: bal, max: bal}
					dgroups[r[1].I] = d
				}
				d.n++
				d.pays += r[tpcc.ColCPaymentCnt].I
				d.min, d.max = min(d.min, bal), max(d.max, bal)
			}
			if r[0].I == 1 && r[1].I == 2 && r[2].I <= 400 {
				top = append(top, []storage.Value{r[2], r[tpcc.ColCLast], r[tpcc.ColCBalance]})
			}
			return true
		})
	}
	var grouped [][]storage.Value
	for st, g := range groups {
		grouped = append(grouped, []storage.Value{storage.Str(st), storage.Int(g.n), storage.Float(g.sum)})
	}
	var byDistrict [][]storage.Value
	for d, g := range dgroups {
		byDistrict = append(byDistrict, []storage.Value{storage.Int(d), storage.Float(g.min), storage.Float(g.max),
			storage.Float(float64(g.pays) / float64(g.n)), storage.Int(g.n)})
	}
	counts := func(m map[int64]int64) (rows [][]storage.Value) {
		for d, n := range m {
			rows = append(rows, []storage.Value{storage.Int(d), storage.Int(n)})
		}
		return rows
	}
	slices.SortFunc(top, func(a, b []storage.Value) int { return int(b[0].I - a[0].I) })
	top = top[:min(len(top), 200)]
	return []string{
		formatRows(grouped, true),
		formatRows([][]storage.Value{{storage.Int(like)}}, false),
		formatRows(top, false),
		formatRows([][]storage.Value{{storage.Int(tpcc.ReferenceQ3(db, cfg))}}, false),
		formatRows(byDistrict, true),
		formatRows(counts(orders), true),
		formatRows(counts(newOrders), true),
	}
}

// formatRows prints an answer, its rows sorted when their order is not
// part of it.
func formatRows(rows [][]storage.Value, unordered bool) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	if unordered {
		slices.Sort(out)
	}
	return strings.Join(out, "\n")
}
