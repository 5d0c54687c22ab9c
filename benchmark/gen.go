package main

import (
	"fmt"
	"math/rand/v2"

	"anydb"
	"anydb/internal/tpcc"
)

// scale sizes the database. Factor 1 is the frozen benchmark scale:
// 120k customers (15 column chunks per partition) and 120k initial
// orders — larger than the last-level cache, the grouped query inside
// the dense path's 4 096-slot cap, the join outside any per-query
// cache. Smaller factors exist for the smoke test only.
type scale struct {
	factor                                          float64
	warehouses, districts, customers, orders, items int
}

func newScale(f float64) scale {
	dim := func(full, floor int) int { return max(int(float64(full)*f), floor) }
	return scale{
		factor: f, warehouses: 4, districts: 10,
		customers: dim(3000, 30), orders: dim(3000, 30), items: dim(10000, 100),
	}
}

// count scales a frozen op count, keeping it a positive multiple of
// unit so blocks split evenly over sessions or clients.
func (s scale) count(full, unit int) int {
	return max(int(float64(full)*s.factor)/unit, 1) * unit
}

func (s scale) config(seed uint64) anydb.Config {
	return anydb.Config{
		Warehouses: s.warehouses, Districts: s.districts,
		CustomersPerDistrict: s.customers, InitialOrdersPerDist: s.orders,
		Items: s.items, Seed: int64(seed),
	}
}

func (s scale) totalCustomers() int64 {
	return int64(s.warehouses) * int64(s.districts) * int64(s.customers)
}

// workload is one frozen traffic shape. The op counts are the ones
// BENCHMARK.json's bounds were measured with; changing any of them
// starts a new baseline.
type workload struct {
	name string
	why  string
	// Closed-loop OLTP: sessions × a 32-deep pipelined window each,
	// 50/50 payment/new-order, hotFrac of the transactions homed on
	// warehouse 0.
	sessions int
	hotFrac  float64
	policy   anydb.Policy // routing policy set after Open (zero: SharedNothing, Open's own)
	durable  bool
	// Analytical side: closed-loop clients parked on Query
	// (olap_shared) or an open-loop stream at a fixed rate (htap).
	olapClients int
	olapRate    float64
	// blockOps is the closed-loop op count of one measurement block (all
	// sessions or clients together); markOps is the closed-loop op count
	// at which peak_rss_mb is read, so that a faster tree, which retires
	// more history rows in the same seconds, is not charged for them.
	blockOps, markOps int
}

const window = 32 // in-flight transactions per session

var workloads = []workload{
	{
		name: "oltp_uniform", sessions: 2, blockOps: 20000, markOps: 200000,
		why: "Figure-1 phase 1: partitionable 50/50 payment/new-order, Durability Off; submit plane, stream, core, oltp and storage heap do all the work, wal/olap/sql none",
	},
	{
		name: "oltp_skewed", sessions: 2, hotFrac: 0.9, policy: anydb.StreamingCC, blockOps: 20000, markOps: 200000,
		why: "Figure-1 phase 2: 90% of the same mix on warehouse 0 under StreamingCC; sequencer and one hot partition are the critical path, so a uniform-only win that costs the contended path shows",
	},
	{
		name: "oltp_durable", sessions: 2, durable: true, blockOps: 5000, markOps: 100000,
		why: "oltp_uniform's stream with Durability Batch on a WAL directory, then reopen; wal append, group fsync and replay dominate, and oltp_uniform is its bypass twin",
	},
	{
		name: "olap_shared", olapClients: 8, blockOps: 50, markOps: 1000,
		why: "read-only: 8 in-flight clients over four query shapes on already-built chunks; sql, plan, olap scan, sink and Rows do the work while the OLTP layers idle",
	},
	{
		name: "htap", sessions: 2, olapRate: 20, blockOps: 10000, markOps: 100000,
		why: "Figure-1 phase 3: two closed-loop OLTP sessions beside an open-loop 20 q/s analytical stream; chunk rebuild after writes, not scanning, is predicted to set query latency",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// txnOp is one generated transaction. Payment amounts are whole numbers
// so that the sum of acknowledged payments compares exactly with the
// warehouse YTD column after recovery.
type txnOp struct {
	newOrder bool
	pay      anydb.Payment
	no       anydb.NewOrder
}

// opGen produces one session's transaction stream from the run seed:
// the same (seed, stream) pair always yields the same ops, and the
// program under test only ever sees the generated values.
type opGen struct {
	rng     *rand.Rand
	sc      scale
	hotFrac float64
	lines   []anydb.OrderLine // arena for one block's order lines
}

var lastNames = func() (names [1000]string) {
	for i := range names {
		names[i] = tpcc.LastName(i)
	}
	return
}()

func newOpGen(seed, stream uint64, sc scale, hotFrac float64) *opGen {
	return &opGen{rng: rand.New(rand.NewPCG(seed, stream)), sc: sc, hotFrac: hotFrac}
}

// nuRand is TPC-C §2.1.6 non-uniform random selection.
func (g *opGen) nuRand(a, x, y, c int) int {
	return (((g.rng.IntN(a+1) | (x + g.rng.IntN(y-x+1))) + c) % (y - x + 1)) + x
}

func (g *opGen) homeW() int {
	if g.rng.Float64() < g.hotFrac {
		return 0
	}
	return g.rng.IntN(g.sc.warehouses)
}

func (g *opGen) otherW(w int) int {
	o := g.rng.IntN(g.sc.warehouses - 1)
	if o >= w {
		o++
	}
	return o
}

func (g *opGen) customerID() int {
	if g.sc.customers >= 3000 {
		return g.nuRand(1023, 1, g.sc.customers, 259)
	}
	return 1 + g.rng.IntN(g.sc.customers)
}

// fill overwrites ops with the next len(ops) transactions of the
// stream. Order lines live in a per-generator arena that the next fill
// reuses; Submit copies them, so that is safe once the block is done.
func (g *opGen) fill(ops []txnOp) {
	g.lines = g.lines[:0]
	for i := range ops {
		w := g.homeW()
		d := 1 + g.rng.IntN(g.sc.districts)
		if g.rng.IntN(2) == 0 {
			p := anydb.Payment{
				Warehouse: w, District: d, CustomerWarehouse: w, CustomerDistrict: d,
				Amount: float64(1 + g.rng.IntN(5000)),
			}
			if g.rng.Float64() < 0.15 { // TPC-C §2.5.1.2 remote customer
				p.CustomerWarehouse = g.otherW(w)
				p.CustomerDistrict = 1 + g.rng.IntN(g.sc.districts)
			}
			if g.rng.Float64() < 0.60 { // ... selected by last name
				p.ByLastName = true
				if g.sc.customers >= 1000 {
					p.LastName = lastNames[g.nuRand(255, 0, 999, 173)]
				} else {
					p.LastName = lastNames[g.rng.IntN(g.sc.customers)]
				}
			} else {
				p.Customer = g.customerID()
			}
			ops[i] = txnOp{pay: p}
			continue
		}
		first := len(g.lines)
		for l := 0; l < 10; l++ {
			line := anydb.OrderLine{Item: g.rng.IntN(g.sc.items), Qty: 1 + g.rng.IntN(10), SupplyWarehouse: w}
			if g.rng.Float64() < 0.01 { // TPC-C §2.4.1.5 remote supplier
				line.SupplyWarehouse = g.otherW(w)
			}
			g.lines = append(g.lines, line)
		}
		ops[i] = txnOp{newOrder: true, no: anydb.NewOrder{
			Warehouse: w, District: d, Customer: g.customerID(),
			Lines: g.lines[first:len(g.lines):len(g.lines)],
		}}
	}
}

// streamHash digests the first n ops of a (seed, stream) pair; the
// tests use it to pin "same seed, same inputs".
func streamHash(seed, stream uint64, sc scale, hotFrac float64, n int) uint64 {
	ops := make([]txnOp, n)
	newOpGen(seed, stream, sc, hotFrac).fill(ops)
	h := digest(fnvOffset)
	put := func(vs ...int) {
		for _, v := range vs {
			h.u64(uint64(v))
		}
	}
	for _, o := range ops {
		if o.newOrder {
			put(1, o.no.Warehouse, o.no.District, o.no.Customer)
			for _, l := range o.no.Lines {
				put(l.Item, l.Qty, l.SupplyWarehouse)
			}
			continue
		}
		p := o.pay
		put(0, p.Warehouse, p.District, p.CustomerWarehouse, p.CustomerDistrict, p.Customer, int(p.Amount))
		h.str(p.LastName)
	}
	return uint64(h)
}

// queryShape is one of the four analytical statements; query.go's
// drain and check know them by position.
type queryShape struct {
	name string
	sql  string
}

// queryShapes builds the four statements for one run. The projection's
// warehouse and district rotate with the seed.
func queryShapes(seed uint64, sc scale) []queryShape {
	w := int(seed % uint64(sc.warehouses))
	d := 1 + int(seed/uint64(sc.warehouses)%uint64(sc.districts))
	limit := min(200, sc.customers)
	return []queryShape{
		{name: "group", sql: `SELECT c_state, COUNT(*), SUM(c_balance) FROM customer GROUP BY c_state`},
		{name: "like", sql: `SELECT COUNT(*) FROM customer WHERE c_state LIKE 'A%'`},
		{name: "q3", sql: fmt.Sprintf(`SELECT COUNT(*)
			FROM customer
			JOIN orders ON customer.c_w_id = orders.o_w_id
				AND customer.c_d_id = orders.o_d_id
				AND customer.c_id = orders.o_c_id
			JOIN new_order ON orders.o_w_id = new_order.no_w_id
				AND orders.o_d_id = new_order.no_d_id
				AND orders.o_id = new_order.no_o_id
			WHERE c_state LIKE '%s%%' AND o_entry_d >= %d`, tpcc.Q3StatePrefix, tpcc.Q3SinceYear)},
		{name: "topn", sql: fmt.Sprintf(`SELECT c_id, c_last, c_balance FROM customer
			WHERE c_w_id = %d AND c_d_id = %d AND c_id <= %d ORDER BY c_id DESC LIMIT %d`, w, d, 2*limit, limit)},
	}
}

// shapeOrder is the seed's rotation over the four shapes: query i of a
// stream runs shape order[i%4]. Only the starting point rotates. Which
// shape follows which stays fixed, because it is part of the workload:
// the query issued while the 80 ms join still runs waits behind it, and
// with the neighbours shuffled per seed htap's transaction rate moved
// by a quarter from seed to seed.
func shapeOrder(seed uint64) (order [4]int) {
	for i := range order {
		order[i] = (int(seed%4) + i) % 4
	}
	return order
}
