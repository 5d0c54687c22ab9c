package anydb_test

import (
	"fmt"
	"strings"
	"testing"

	"anydb"
	"anydb/internal/core"
	"anydb/internal/tpcc"
)

// trackPools arms the process-global pool-leak accounting for one test
// and returns the assertion to run once the cluster's Close returned: a
// drained shutdown must leave zero outstanding pooled Events, DataMsgs,
// and Batches — a nonzero balance means some path got a pooled message
// and never reached its single-consumer death point (or freed it
// twice). Tests sharing the counters run sequentially, so arming per
// test is safe.
func trackPools(t *testing.T) (assertBalanced func()) {
	t.Helper()
	core.TrackPools(true)
	t.Cleanup(func() { core.TrackPools(false) })
	return func() {
		t.Helper()
		if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
			t.Errorf("pooled objects leaked across Close: %s", core.PoolBalanceString())
		}
	}
}

// TestQueryShapesLeaveNoPooledBatch runs the repo benchmark's four query
// shapes twice each, so the second run of each replays the batches the
// first stored and reuses the customer build and the merged groups, and
// at Close the Workers hold batches for all of them. Each second answer
// must equal the first, and the drained Close, which releases what the
// Workers keep, must leave no pooled object outstanding.
func TestQueryShapesLeaveNoPooledBatch(t *testing.T) {
	assertBalanced := trackPools(t)
	c, err := anydb.Open(anydb.Config{
		Warehouses: 2, Districts: 2, CustomersPerDistrict: 200,
		InitialOrdersPerDist: 200, Items: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	shapes := []string{
		`SELECT c_state, COUNT(*), SUM(c_balance) FROM customer GROUP BY c_state`,
		`SELECT COUNT(*) FROM customer WHERE c_state LIKE 'A%'`,
		tpcc.Q3SQL,
		`SELECT c_id, c_last, c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 2 AND c_id <= 100 ORDER BY c_id DESC LIMIT 50`,
	}
	answer := func(stmt string) string {
		rows, err := c.Query(bg, stmt)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []string
		for rows.Next() {
			row := make([]any, len(rows.Columns()))
			dest := make([]any, len(row))
			for i := range row {
				dest[i] = &row[i]
			}
			if err := rows.Scan(dest...); err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprint(row...))
		}
		if len(out) == 0 {
			t.Fatalf("%s: no rows", stmt)
		}
		return strings.Join(out, "\n")
	}
	for _, stmt := range shapes {
		if first, again := answer(stmt), answer(stmt); again != first {
			t.Fatalf("%s: a second run answered\n%s\nthe first\n%s", stmt, again, first)
		}
	}
	c.Close()
	assertBalanced()
}

// TestReplayedJoinsLeaveNoPooledBatch runs Q3 three times on one cluster:
// the second and third runs replay the scans' stored batches, reuse both
// join builds and send the joins' kept output again, so at Close the
// Workers hold probe and output batches for both joins beside the builds.
// Every answer must be the first, and the drained Close, whose Release
// frees each kept output with its build, must leave no pooled object
// outstanding.
func TestReplayedJoinsLeaveNoPooledBatch(t *testing.T) {
	assertBalanced := trackPools(t)
	c, err := anydb.Open(anydb.Config{
		Warehouses: 2, Districts: 2, CustomersPerDistrict: 200,
		InitialOrdersPerDist: 200, Items: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first int64
	for i := range 3 {
		var n int64
		if err := c.QueryRow(bg, tpcc.Q3SQL).Scan(&n); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = n
		} else if n != first {
			t.Fatalf("Q3 run %d counted %d, the first %d", i+1, n, first)
		}
	}
	if first == 0 {
		t.Fatal("Q3 counted no order")
	}
	c.Close()
	assertBalanced()
}
