package anydb_test

import (
	"math"
	"strings"
	"testing"

	"anydb"
)

// The tests in this file are value oracles for the encoded columnar
// chunks: every filtered or grouped SQL result must equal an answer
// computed by hand in Go over the full unfiltered row stream. The
// filters are chosen to hit each encoding's predicate fast path —
// LIKE-prefix and equality resolve to dictionary code sets, o_entry_d
// ranges hit the code bitset, and c_id at 2500 customers per district
// overflows the int dictionary so its chunks fall back to
// frame-of-reference deltas.

// oracleConfig sizes customers past the int-dictionary cap (1<<10), so
// c_id columns seal their dictionary and rebuild as FoR — while the
// total row count stays under the result-collection cap, so the
// unfiltered oracle stream sees every row.
func oracleConfig() anydb.Config {
	return anydb.Config{
		Warehouses: 2, Districts: 2, CustomersPerDistrict: 2500,
		InitialOrdersPerDist: 10, Items: 100,
	}
}

type custOracle struct {
	id      int64
	state   string
	credit  string
	balance float64
}

// loadCustomers streams every customer row once — the per-row decode
// path, independent of predicate compilation — as the oracle data set.
func loadCustomers(t *testing.T, c *anydb.Cluster) []custOracle {
	t.Helper()
	rows, err := c.Query(bg, "SELECT c_id, c_state, c_credit, c_balance FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out []custOracle
	for rows.Next() {
		var r custOracle
		if err := rows.Scan(&r.id, &r.state, &r.credit, &r.balance); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	if rows.Truncated() {
		t.Fatal("oracle stream truncated")
	}
	return out
}

func queryCount(t *testing.T, c *anydb.Cluster, q string) int64 {
	t.Helper()
	var n int64
	if err := c.QueryRow(bg, q).Scan(&n); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return n
}

// TestEncodedPredicateOracle checks each code-level predicate mode
// against a hand filter of the same rows.
func TestEncodedPredicateOracle(t *testing.T) {
	c, err := anydb.Open(oracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cust := loadCustomers(t, c)
	if len(cust) != 2*2*2500 {
		t.Fatalf("oracle has %d customers, want %d", len(cust), 2*2*2500)
	}

	// LIKE prefix on a dictionary string column -> code-set bitset.
	var wantLike int64
	for _, r := range cust {
		if strings.HasPrefix(r.state, "A") {
			wantLike++
		}
	}
	if got := queryCount(t, c, "SELECT COUNT(*) FROM customer WHERE c_state LIKE 'A%'"); got != wantLike {
		t.Errorf("LIKE 'A%%': got %d, want %d", got, wantLike)
	}

	// String equality on a dictionary column -> single-code compare.
	// The probe state comes from the data, so the match set is
	// non-empty; with ~676 possible states it is also a strict subset.
	probe := cust[0].state
	var wantEq int64
	for _, r := range cust {
		if r.state == probe {
			wantEq++
		}
	}
	if wantEq == int64(len(cust)) {
		t.Fatalf("degenerate state split: every customer is %q", probe)
	}
	if got := queryCount(t, c, "SELECT COUNT(*) FROM customer WHERE c_state = '"+probe+"'"); got != wantEq {
		t.Errorf("c_state = %q: got %d, want %d", probe, got, wantEq)
	}

	// Equality on a constant dictionary column collapses to match-all
	// at the chunk level (one code, every row carries it).
	if got := queryCount(t, c, "SELECT COUNT(*) FROM customer WHERE c_credit = 'GC'"); got != int64(len(cust)) {
		t.Errorf("c_credit = 'GC': got %d, want %d", got, len(cust))
	}
	// ...and equality against an absent value collapses to match-none.
	if got := queryCount(t, c, "SELECT COUNT(*) FROM customer WHERE c_credit = 'BC'"); got != 0 {
		t.Errorf("c_credit = 'BC': got %d, want 0", got)
	}

	// Int range on a column past the dictionary cap -> FoR delta
	// compare (c_id runs 1..2500 per district, cap is 1024).
	var wantFoR int64
	for _, r := range cust {
		if r.id >= 2000 {
			wantFoR++
		}
	}
	if got := queryCount(t, c, "SELECT COUNT(*) FROM customer WHERE c_id >= 2000"); got != wantFoR {
		t.Errorf("c_id >= 2000: got %d, want %d", got, wantFoR)
	}

	// Int range on a small-domain dictionary column -> code bitset
	// (o_entry_d is a year in 2000..2019).
	rows, err := c.Query(bg, "SELECT o_entry_d FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	var wantYear, orders int64
	for rows.Next() {
		var y int64
		if err := rows.Scan(&y); err != nil {
			t.Fatal(err)
		}
		orders++
		if y >= 2007 {
			wantYear++
		}
	}
	rows.Close()
	if wantYear == 0 || wantYear == orders {
		t.Fatalf("degenerate year split: %d of %d", wantYear, orders)
	}
	if got := queryCount(t, c, "SELECT COUNT(*) FROM orders WHERE o_entry_d >= 2007"); got != wantYear {
		t.Errorf("o_entry_d >= 2007: got %d, want %d", got, wantYear)
	}
}

// TestGroupedAggOracle checks the dense grouped-aggregate fast path
// against a hand-grouped map of the same rows. AVG(c_id)
// folds an int column through the decode path; SUM and AVG of c_balance
// fold a raw float column through its typed loop.
func TestGroupedAggOracle(t *testing.T) {
	c, err := anydb.Open(oracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cust := loadCustomers(t, c)

	type agg struct {
		n        int64
		sum, bal float64 // sum of c_id, sum of c_balance
	}
	want := make(map[string]*agg)
	for _, r := range cust {
		a := want[r.state]
		if a == nil {
			a = &agg{}
			want[r.state] = a
		}
		a.n++
		a.sum += float64(r.id)
		a.bal += r.balance
	}

	const q = "SELECT c_state, COUNT(*), AVG(c_id), SUM(c_balance), AVG(c_balance) FROM customer GROUP BY c_state"
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }
	run := func() map[string]agg {
		rows, err := c.Query(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		got := make(map[string]agg)
		for rows.Next() {
			var state string
			var n int64
			var avg, bal, avgBal float64
			if err := rows.Scan(&state, &n, &avg, &bal, &avgBal); err != nil {
				t.Fatal(err)
			}
			if _, dup := got[state]; dup {
				t.Fatalf("state %q appears twice in one result set", state)
			}
			if !near(avgBal*float64(n), bal) {
				t.Fatalf("state %q: AVG(c_balance) %v × %d != SUM(c_balance) %v", state, avgBal, n, bal)
			}
			got[state] = agg{n: n, sum: avg * float64(n), bal: bal}
		}
		return got
	}

	got := run()
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for state, w := range want {
		g, ok := got[state]
		if !ok {
			t.Fatalf("missing group %q", state)
		}
		if g.n != w.n {
			t.Errorf("%q count = %d, want %d", state, g.n, w.n)
		}
		if !near(g.sum, w.sum) {
			t.Errorf("%q sum = %v, want %v", state, g.sum, w.sum)
		}
		if !near(g.bal, w.bal) {
			t.Errorf("%q balance sum = %v, want %v", state, g.bal, w.bal)
		}
	}
}
