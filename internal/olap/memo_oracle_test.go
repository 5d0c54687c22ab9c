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

// TestMemoOracleBesideWrites runs every statement twice after each of a
// series of writes to the scanned tables, on one cluster whose Workers
// keep their selection memos throughout, and checks every answer against
// a naive evaluation over the row heaps. The writes cover what can
// invalidate a memo entry: a filtered column (c_state, which also moves
// the customer build and so the orders key filter), a column no filter
// reads (c_balance), an insert into orders and new_order (the slot list
// of their tail chunks), new_order inserts that fill its tail chunk and
// then open a new one, a new_order delete, and a ResetRows +
// InstallRows round trip of three tables. The second run of each filtered
// statement must evaluate no chunk, and the second run of each aggregate
// pushdown fold none, so the answers it checks come from the memo. The
// grouped statements fold on their first run before any write.
func TestMemoOracleBesideWrites(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 2, Districts: 4, Customers: 1500,
		Items: 40, InitOrders: 1500, Seed: 11}.WithDefaults()
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
	parts := []int{0, 1}
	qid := core.QueryID(0)
	work := func() (evals, folds int) {
		for _, w := range workers {
			e, _, f := w.Work()
			evals, folds = evals+e, folds+f
		}
		return evals, folds
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
	check := func(step string) {
		want := naiveAnswers(db, cfg)
		for i, stmt := range memoStatements {
			for pass := range 2 {
				evals, folds := work()
				got := run(stmt)
				if g := formatRows(got, memoGrouped[i]); g != want[i] {
					t.Fatalf("after %s, pass %d of statement %d:\n got %s\nwant %s", step, pass, i, g, want[i])
				}
				e, f := work()
				if pass == 1 && e != evals {
					t.Fatalf("after %s: statement %d evaluated %d chunks on unchanged data", step, i, e-evals)
				}
				if pass == 1 && f != folds {
					t.Fatalf("after %s: statement %d folded %d chunks on unchanged data", step, i, f-folds)
				}
				if step == "no write" && pass == 0 && memoGrouped[i] && f == folds {
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
