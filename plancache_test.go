package anydb_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"anydb"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// planCacheConfig is a small cluster with several warehouses and
// districts, so the top-N rotates over six (warehouse, district) pairs.
func planCacheConfig() anydb.Config {
	return anydb.Config{
		Warehouses: 2, Districts: 3, CustomersPerDistrict: 300,
		InitialOrdersPerDist: 300, Items: 50,
	}
}

// cacheStmt is one statement text and its answer, formatted by
// formatAnswer, from a naive evaluation over the row heaps.
type cacheStmt struct {
	text, want string
}

// topnText is the benchmark's top-N shape at warehouse w, district d.
func topnText(w, d, limit int) string {
	return fmt.Sprintf(`SELECT c_id, c_last, c_balance FROM customer
		WHERE c_w_id = %d AND c_d_id = %d AND c_id <= %d ORDER BY c_id DESC LIMIT %d`, w, d, 2*limit, limit)
}

// q3Text is Q3 with its state prefix and year as given.
func q3Text(prefix string, year int) string {
	return fmt.Sprintf(`SELECT COUNT(*)
		FROM customer
		JOIN orders ON customer.c_w_id = orders.o_w_id
			AND customer.c_d_id = orders.o_d_id
			AND customer.c_id = orders.o_c_id
		JOIN new_order ON orders.o_w_id = new_order.no_w_id
			AND orders.o_d_id = new_order.no_d_id
			AND orders.o_id = new_order.no_o_id
		WHERE c_state LIKE '%s%%' AND o_entry_d >= %d`, prefix, year)
}

// cacheStatements returns the rotating statements and their answers:
// the grouped and LIKE counts, the top-N over every (warehouse,
// district), and Q3 over three prefixes and three years.
func cacheStatements(db *storage.Database, cfg anydb.Config) []cacheStmt {
	type cust struct {
		w, d, id int64
		last     string
		state    string
		balance  float64
	}
	var custs []cust
	for w := range cfg.Warehouses {
		ct := db.Partition(w).Table(tpcc.TCustomer)
		s := ct.Schema
		wc, dc, ic := s.MustCol("c_w_id"), s.MustCol("c_d_id"), s.MustCol("c_id")
		lc, sc := s.MustCol("c_last"), s.MustCol("c_state")
		ct.Scan(func(_ int32, r storage.Row) bool {
			custs = append(custs, cust{r[wc].I, r[dc].I, r[ic].I, r[lc].S, r[sc].S, r[tpcc.ColCBalance].F})
			return true
		})
	}

	var out []cacheStmt
	counts, sums := map[string]int64{}, map[string]float64{}
	like := 0
	for _, c := range custs {
		counts[c.state]++
		sums[c.state] += c.balance
		if strings.HasPrefix(c.state, "A") {
			like++
		}
	}
	var group []string
	for st, n := range counts {
		group = append(group, fmt.Sprintf("%s %d %.6f", st, n, sums[st]))
	}
	slices.Sort(group)
	out = append(out,
		cacheStmt{`SELECT c_state, COUNT(*), SUM(c_balance) FROM customer GROUP BY c_state`, strings.Join(group, "\n")},
		cacheStmt{`SELECT COUNT(*) FROM customer WHERE c_state LIKE 'A%'`, fmt.Sprint(like)})

	const limit = 40
	for w := range cfg.Warehouses {
		for d := 1; d <= cfg.Districts; d++ {
			var rows []cust
			for _, c := range custs {
				if c.w == int64(w) && c.d == int64(d) && c.id <= 2*limit {
					rows = append(rows, c)
				}
			}
			slices.SortFunc(rows, func(a, b cust) int { return int(b.id - a.id) })
			var lines []string
			for _, c := range rows[:min(limit, len(rows))] {
				lines = append(lines, fmt.Sprintf("%d %s %.6f", c.id, c.last, c.balance))
			}
			out = append(out, cacheStmt{topnText(w, d, limit), strings.Join(lines, "\n")})
		}
	}

	for _, prefix := range []string{"A", "B", "M"} {
		for _, year := range []int{2000, tpcc.Q3SinceYear, 2015} {
			out = append(out, cacheStmt{q3Text(prefix, year), fmt.Sprint(naiveQ3(db, cfg.Warehouses, prefix, year))})
		}
	}
	return out
}

// naiveQ3 counts the new_order rows whose order, entered in year or
// later, belongs to a customer whose state starts with prefix.
func naiveQ3(db *storage.Database, warehouses int, prefix string, year int) int64 {
	cust := map[storage.Key]bool{}
	ord := map[storage.Key]bool{}
	for w := range warehouses {
		ct := db.Partition(w).Table(tpcc.TCustomer)
		wc, dc, cc, sc := ct.Schema.MustCol("c_w_id"), ct.Schema.MustCol("c_d_id"), ct.Schema.MustCol("c_id"), ct.Schema.MustCol("c_state")
		ct.Scan(func(_ int32, r storage.Row) bool {
			if strings.HasPrefix(r[sc].S, prefix) {
				cust[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[cc].I)] = true
			}
			return true
		})
	}
	for w := range warehouses {
		ot := db.Partition(w).Table(tpcc.TOrders)
		wc, dc, oc := ot.Schema.MustCol("o_w_id"), ot.Schema.MustCol("o_d_id"), ot.Schema.MustCol("o_id")
		cc, yc := ot.Schema.MustCol("o_c_id"), ot.Schema.MustCol("o_entry_d")
		ot.Scan(func(_ int32, r storage.Row) bool {
			if r[yc].I >= int64(year) && cust[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[cc].I)] {
				ord[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[oc].I)] = true
			}
			return true
		})
	}
	var n int64
	for w := range warehouses {
		nt := db.Partition(w).Table(tpcc.TNewOrder)
		wc, dc, oc := nt.Schema.MustCol("no_w_id"), nt.Schema.MustCol("no_d_id"), nt.Schema.MustCol("no_o_id")
		nt.Scan(func(_ int32, r storage.Row) bool {
			if ord[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[oc].I)] {
				n++
			}
			return true
		})
	}
	return n
}

// formatAnswer runs text and formats its rows as cacheStatements does:
// one line per row, grouped rows sorted, floats to six places.
func formatAnswer(c *anydb.Cluster, text string) (string, error) {
	rows, err := c.Query(bg, text)
	if err != nil {
		return "", err
	}
	defer rows.Close()
	var lines []string
	for rows.Next() {
		switch len(rows.Columns()) {
		case 1:
			var n int64
			if err := rows.Scan(&n); err != nil {
				return "", err
			}
			lines = append(lines, fmt.Sprint(n))
		case 3:
			var a, b any
			var f float64
			if err := rows.Scan(&a, &b, &f); err != nil {
				return "", err
			}
			lines = append(lines, fmt.Sprintf("%v %v %.6f", a, b, f))
		}
	}
	if strings.Contains(text, "GROUP BY") {
		slices.Sort(lines)
	}
	return strings.Join(lines, "\n"), nil
}

// countText is a statement that differs from the others of its kind in
// one literal only, and its answer.
func countText(db *storage.Database, warehouses, maxID int) cacheStmt {
	n := 0
	for w := range warehouses {
		ct := db.Partition(w).Table(tpcc.TCustomer)
		ic := ct.Schema.MustCol("c_id")
		ct.Scan(func(_ int32, r storage.Row) bool {
			if r[ic].I <= int64(maxID) {
				n++
			}
			return true
		})
	}
	return cacheStmt{fmt.Sprintf("SELECT COUNT(*) FROM customer WHERE c_id <= %d", maxID), fmt.Sprint(n)}
}

// TestQueryPlanCache checks the cluster's plan cache. Each distinct
// statement text compiles once and a repeat compiles nothing, while the
// literals rotate as a workload's do (the top-N over every warehouse and
// district, Q3 over three state prefixes and three years) and every
// answer matches a naive evaluation over the row heaps. More distinct
// texts than the cache holds leave it at its bound, and an evicted text
// compiles again and still answers right. Last, eight goroutines run
// every text at once.
func TestQueryPlanCache(t *testing.T) {
	cfg := planCacheConfig()
	c, err := anydb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A payment per (warehouse, district), of its own amount, to a
	// customer the top-N returns: the top-N's answers then differ from
	// one (warehouse, district) to the next.
	for w := range cfg.Warehouses {
		for d := 1; d <= cfg.Districts; d++ {
			p := anydb.Payment{Warehouse: w, District: d, Customer: 70 + d, Amount: float64(1 + 10*w + d)}
			if committed, err := c.Payment(p); err != nil || !committed {
				t.Fatalf("payment %+v: committed=%v err=%v", p, committed, err)
			}
		}
	}
	db := c.Database()
	stmts := cacheStatements(db, cfg)
	for i, s := range stmts {
		if slices.ContainsFunc(stmts[:i], func(o cacheStmt) bool { return o.want == s.want }) && !strings.Contains(s.text, "JOIN") {
			t.Fatalf("two statements answer alike, so the oracle cannot tell them apart:\n%s", s.want)
		}
	}
	var extra []cacheStmt
	for i := range anydb.PlanCacheCap + 8 {
		extra = append(extra, countText(db, cfg.Warehouses, 1+i))
	}

	check := func(s cacheStmt) error {
		got, err := formatAnswer(c, s.text)
		if err != nil {
			return fmt.Errorf("%s: %v", s.text, err)
		}
		if got != s.want {
			return fmt.Errorf("%s:\n got %s\nwant %s", s.text, got, s.want)
		}
		return nil
	}
	for round := range 2 {
		before := c.PlanCompiles()
		for _, s := range stmts {
			if err := check(s); err != nil {
				t.Fatal(err)
			}
		}
		want := int64(len(stmts))
		if round == 1 {
			want = 0
		}
		if n := c.PlanCompiles() - before; n != want {
			t.Fatalf("round %d over %d distinct texts compiled %d statements, want %d", round, len(stmts), n, want)
		}
	}

	before := c.PlanCompiles()
	for _, s := range extra {
		if err := check(s); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.PlanCompiles() - before; n != int64(len(extra)) {
		t.Fatalf("%d distinct texts compiled %d statements", len(extra), n)
	}
	if n := c.PlanCacheLen(); n != anydb.PlanCacheCap {
		t.Fatalf("the cache keeps %d templates, want its bound %d", n, anydb.PlanCacheCap)
	}
	// The rotating statements went first, so they are evicted: each
	// compiles again.
	before = c.PlanCompiles()
	for _, s := range stmts {
		if err := check(s); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.PlanCompiles() - before; n != int64(len(stmts)) {
		t.Fatalf("%d evicted texts compiled %d statements, want one each", len(stmts), n)
	}

	all := append(slices.Clone(stmts), extra...)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(all) / 8 {
				if err := check(all[(g*7+i)%len(all)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := c.PlanCacheLen(); n > anydb.PlanCacheCap {
		t.Fatalf("the cache keeps %d templates past its bound %d", n, anydb.PlanCacheCap)
	}
}
