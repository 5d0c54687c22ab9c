package tpcc

import (
	"fmt"

	"anydb/internal/storage"
)

// The CH-benCHmark-style query of the paper's §4 experiment (based on
// CH-benCHmark Q3 [3]): "report all open orders for all customers from
// states beginning with 'A' since 2007" — three filtered scans (customer,
// orders, new_order) and two joins.

// Q3StatePrefix filters customers by state prefix (≈1/26 selectivity with
// uniform first letters).
const Q3StatePrefix = "A"

// Q3SinceYear filters orders by entry year (13 of 20 populated years
// qualify, ≈65% selectivity).
const Q3SinceYear = 2007

// Q3SQL is the query in the SQL surface's grammar. Every runtime runs it
// through the same planner: the public OpenOrders wrappers, the
// virtual-time figures and the tests. Its COUNT(*) over inner joins
// equals the semi-join count of ReferenceQ3, since each order has one
// customer and each new_order one order.
var Q3SQL = fmt.Sprintf(`SELECT COUNT(*)
	FROM customer
	JOIN orders ON customer.c_w_id = orders.o_w_id
		AND customer.c_d_id = orders.o_d_id
		AND customer.c_id = orders.o_c_id
	JOIN new_order ON orders.o_w_id = new_order.no_w_id
		AND orders.o_d_id = new_order.no_d_id
		AND orders.o_id = new_order.no_o_id
	WHERE c_state LIKE '%s%%' AND o_entry_d >= %d`,
	Q3StatePrefix, Q3SinceYear)

// ReferenceQ3 evaluates the query sequentially against the database — the
// correctness oracle every engine's result is compared to (tests only; it
// bypasses all execution machinery).
func ReferenceQ3(db *storage.Database, cfg Config) int64 {
	cfg = cfg.WithDefaults()
	cust := make(map[storage.Key]bool)
	ord := make(map[storage.Key]bool)
	var count int64
	for w := 0; w < cfg.Warehouses; w++ {
		p := db.Partition(w)
		ct := p.Table(TCustomer)
		wc, dc, cc := ct.Schema.MustCol("c_w_id"), ct.Schema.MustCol("c_d_id"), ct.Schema.MustCol("c_id")
		sc := ct.Schema.MustCol("c_state")
		ct.Scan(func(_ int32, r storage.Row) bool {
			if len(r[sc].S) > 0 && r[sc].S[:1] == Q3StatePrefix {
				cust[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[cc].I)] = true
			}
			return true
		})
	}
	for w := 0; w < cfg.Warehouses; w++ {
		p := db.Partition(w)
		ot := p.Table(TOrders)
		wc, dc, oc := ot.Schema.MustCol("o_w_id"), ot.Schema.MustCol("o_d_id"), ot.Schema.MustCol("o_id")
		ccol, yc := ot.Schema.MustCol("o_c_id"), ot.Schema.MustCol("o_entry_d")
		ot.Scan(func(_ int32, r storage.Row) bool {
			if r[yc].I >= Q3SinceYear &&
				cust[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[ccol].I)] {
				ord[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[oc].I)] = true
			}
			return true
		})
	}
	for w := 0; w < cfg.Warehouses; w++ {
		p := db.Partition(w)
		nt := p.Table(TNewOrder)
		wc, dc, oc := nt.Schema.MustCol("no_w_id"), nt.Schema.MustCol("no_d_id"), nt.Schema.MustCol("no_o_id")
		nt.Scan(func(_ int32, r storage.Row) bool {
			if ord[storage.MakeKey(int(r[wc].I), int(r[dc].I), r[oc].I)] {
				count++
			}
			return true
		})
	}
	return count
}
