// Quickstart: open an architecture-less cluster, run OLTP transactions
// (blocking and pipelined), run the paper's analytical query, and verify
// TPC-C consistency.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"anydb"
	"anydb/internal/tpcc"
)

func main() {
	ctx := context.Background()

	// A 2-server × 4-core cluster (the paper's Figure 2 layout) over a
	// small TPC-C-style database: 4 warehouses, one partition each,
	// owned by the first server's ACs.
	cluster, err := anydb.Open(anydb.Config{
		Warehouses:           4,
		Districts:            4,
		CustomersPerDistrict: 100,
		InitialOrdersPerDist: 50,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("cluster up: %+v\n", cluster.Stats())

	// A payment by customer id...
	committed, err := cluster.Payment(anydb.Payment{
		Warehouse: 0, District: 1, Customer: 7, Amount: 123.45,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("payment by id committed:", committed)

	// ...and one by TPC-C last name (the 60% case, a range scan).
	committed, err = cluster.Payment(anydb.Payment{
		Warehouse: 2, District: 3, ByLastName: true, LastName: "BARBARBAR",
		Amount: 8.88,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("payment by last name committed:", committed)

	// A new-order with three lines.
	committed, err = cluster.NewOrder(anydb.NewOrder{
		Warehouse: 1, District: 2, Customer: 11,
		Lines: []anydb.OrderLine{
			{Item: 1, Qty: 3, SupplyWarehouse: 1},
			{Item: 5, Qty: 1, SupplyWarehouse: 1},
			{Item: 9, Qty: 2, SupplyWarehouse: 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("new-order committed:", committed)

	// An invalid item triggers TPC-C's 1% rollback path.
	committed, err = cluster.NewOrder(anydb.NewOrder{
		Warehouse: 1, District: 2, Customer: 11,
		Lines: []anydb.OrderLine{{Item: -1, Qty: 1, SupplyWarehouse: 1}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("invalid new-order committed:", committed, "(expected false)")

	// The async session idiom: SubmitPayment returns a pooled Future
	// immediately, so one session keeps a whole window of transactions
	// in flight instead of paying a round trip each. Pass a context to
	// Wait for cancellation/deadlines; canceling abandons the wait, not
	// the transaction.
	const pipeline = 64
	start := time.Now()
	futs := make([]*anydb.Future, 0, pipeline)
	for i := 0; i < pipeline; i++ {
		f, err := cluster.SubmitPayment(ctx, anydb.Payment{
			Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		futs = append(futs, f)
	}
	okAll := true
	for _, f := range futs {
		ok, err := f.Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		okAll = okAll && ok
	}
	fmt.Printf("pipelined %d payments in %v (all committed: %v)\n",
		pipeline, time.Since(start), okAll)

	// The analytical query of the paper's §4: open orders of customers
	// from states beginning with "A", since 2007 — 3 scans, 2 joins,
	// with all data streams beamed.
	open, err := cluster.OpenOrders(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("open qualifying orders:", open)

	// The same query as SQL text (SELECT COUNT(*) FROM customer JOIN
	// orders ... JOIN new_order ... WHERE c_state LIKE 'A%' AND
	// o_entry_d >= 2007): parsed, planned from table statistics, and
	// executed through the identical event/data-stream pipeline.
	var n int64
	err = cluster.QueryRow(ctx, tpcc.Q3SQL).Scan(&n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same query via SQL: %d rows (match: %v)\n", n, n == open)

	// A grouped aggregate with ordering, streamed row by row.
	rows, err := cluster.Query(ctx, `SELECT o_d_id, COUNT(*)
		FROM orders WHERE o_entry_d >= 2007
		GROUP BY o_d_id ORDER BY COUNT(*) DESC, o_d_id LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
		var d, cnt int64
		if err := rows.Scan(&d, &cnt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  district %d: %d recent orders\n", d, cnt)
	}
	rows.Close()

	// And a small projection.
	rows, err = cluster.Query(ctx,
		"SELECT c_id, c_last FROM customer WHERE c_w_id = 0 AND c_d_id = 1 AND c_id <= 3")
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
		var id int64
		var last string
		if err := rows.Scan(&id, &last); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  customer %d: %s\n", id, last)
	}
	rows.Close()

	// Any of the four §3 routing policies is one call away — here the
	// precise intra-transaction pipeline of Figure 4d.
	if err := cluster.SetPolicy(ctx, anydb.PreciseIntra); err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.Payment(anydb.Payment{Warehouse: 3, District: 1, Customer: 1, Amount: 2}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("payment under", anydb.PreciseIntra, "committed")

	// TPC-C consistency must hold after all of the above.
	if err := cluster.Verify(); err != nil {
		log.Fatal("consistency violated: ", err)
	}
	fmt.Println("TPC-C consistency verified ✓")
}
