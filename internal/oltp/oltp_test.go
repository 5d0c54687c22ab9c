package oltp

import (
	"fmt"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

func testCfg() tpcc.Config {
	return tpcc.Config{Warehouses: 4, Districts: 2, Customers: 40,
		Items: 60, InitOrders: 20, Seed: 11}.WithDefaults()
}

// cluster wires the paper's Figure 2 layout: server 1 hosts the four
// partition-owner/executor ACs, server 2 hosts dispatcher, sequencer and
// coordinator.
type cluster struct {
	cl         *core.SimCluster
	dispatcher *Dispatcher
	dispAC     core.ACID
	execs      []core.ACID
	committed  int
	aborted    int
	errs       []error // DoneInfo.Err of every abort that carried one
	lastDone   sim.Time
}

func buildCluster(db *storage.Database, cfg tpcc.Config, policy Policy) *cluster {
	topo := core.NewTopology(db)
	s1 := topo.AddServer(4)
	s2 := topo.AddServer(4)
	for w := 0; w < cfg.Warehouses; w++ {
		topo.SetOwner(w, s1[w%len(s1)])
	}
	dispAC, seqAC, coordAC := s2[0], s2[1], s2[2]

	// Fine-grained record-class routing for the intra policies: the
	// classes of any warehouse spread over server 1's ACs.
	classRoute := func(w int, c Class) core.ACID {
		switch c {
		case ClassWarehouse, ClassDistrict:
			return s1[0]
		case ClassCustomer:
			return s1[1]
		case ClassHistory:
			return s1[2]
		case ClassOrder:
			return s1[0]
		default: // stock
			return s1[3]
		}
	}
	if policy == PreciseIntra {
		// Two balanced sub-sequences (Fig. 4d): brief updates vs the
		// long customer scan.
		classRoute = func(w int, c Class) core.ACID {
			if c == ClassCustomer || c == ClassStock {
				return s1[1]
			}
			return s1[0]
		}
	}
	routes := Routes{Owner: topo.Owner, Seq: seqAC, Coord: core.NoAC}
	if policy != SharedNothing {
		routes.ClassRoute = classRoute
	}
	if policy == StreamingCC {
		routes.Coord = coordAC
	}

	c := &cluster{execs: s1, dispAC: dispAC}
	c.dispatcher = NewDispatcher(policy, db, routes)
	c.cl = core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		ac.Register(core.EvSegment, &Executor{DB: db})
		switch ac.ID {
		case dispAC:
			ac.Register(core.EvTxn, c.dispatcher)
			ac.Register(core.EvAck, c.dispatcher)
			ac.Register(core.EvLogDurable, c.dispatcher)
		case seqAC:
			ac.Register(core.EvSeqStamp, &core.Sequencer{})
		case coordAC:
			ac.Register(core.EvAck, NewCoordinator())
		}
	})
	c.cl.SetClient(func(at sim.Time, ev *core.Event) {
		info := ev.Payload.(*DoneInfo)
		if info.Committed {
			c.committed++
		} else {
			c.aborted++
			if info.Err != nil {
				c.errs = append(c.errs, info.Err)
			}
		}
		c.lastDone = at
	})
	return c
}

// run injects txns and drains the simulation.
func (c *cluster) run(txns []tpcc.Txn) { c.submit(1, txns) }

// submit injects txns, numbered from firstID, at the current virtual
// time and runs the simulation dry.
func (c *cluster) submit(firstID int, txns []tpcc.Txn) {
	for i := range txns {
		c.cl.Inject(c.dispAC, &core.Event{
			Kind: core.EvTxn, Txn: core.TxnID(firstID + i), Payload: &txns[i],
		}, c.cl.Sched.Now())
	}
	c.cl.Run()
}

func genTxns(cfg tpcc.Config, mix tpcc.Mix, n int) []tpcc.Txn {
	g := tpcc.NewGenerator(cfg, mix, 123)
	out := make([]tpcc.Txn, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// snapshot aggregates the database state that must be identical across
// all policies for the same committed transaction set.
func snapshot(db *storage.Database, cfg tpcc.Config) string {
	var wYTD, dYTD, bal, hAmt float64
	var hRows, orders int
	for w := 0; w < cfg.Warehouses; w++ {
		p := db.Partition(w)
		wt := p.Table(tpcc.TWarehouse)
		wt.Scan(func(_ int32, r storage.Row) bool {
			wYTD += r[wt.Schema.MustCol("w_ytd")].F
			return true
		})
		dt := p.Table(tpcc.TDistrict)
		dt.Scan(func(_ int32, r storage.Row) bool {
			dYTD += r[dt.Schema.MustCol("d_ytd")].F
			return true
		})
		ct := p.Table(tpcc.TCustomer)
		ct.Scan(func(_ int32, r storage.Row) bool {
			bal += r[ct.Schema.MustCol("c_balance")].F
			return true
		})
		ht := p.Table(tpcc.THistory)
		ht.Scan(func(_ int32, r storage.Row) bool {
			hAmt += r[ht.Schema.MustCol("h_amount")].F
			return true
		})
		hRows += ht.Rows()
		orders += p.Table(tpcc.TOrders).Rows()
	}
	return fmt.Sprintf("wYTD=%.2f dYTD=%.2f bal=%.2f hist=%d/%.2f orders=%d",
		wYTD, dYTD, bal, hRows, hAmt, orders)
}

func policies() []Policy {
	return []Policy{SharedNothing, NaiveIntra, PreciseIntra, StreamingCC}
}

func TestAllPoliciesPaymentCorrectness(t *testing.T) {
	cfg := testCfg()
	txns := genTxns(cfg, tpcc.Partitionable(), 600)
	var snaps []string
	for _, pol := range policies() {
		db, _ := tpcc.NewDatabase(cfg)
		c := buildCluster(db, cfg, pol)
		c.run(txns)
		if c.committed != 600 || c.aborted != 0 {
			t.Fatalf("%v: committed=%d aborted=%d", pol, c.committed, c.aborted)
		}
		if _, err := tpcc.Verify(db, cfg); err != nil {
			t.Fatalf("%v violates TPC-C consistency: %v", pol, err)
		}
		snaps = append(snaps, snapshot(db, cfg))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("end states diverge:\n%v: %s\n%v: %s",
				policies()[0], snaps[0], policies()[i], snaps[i])
		}
	}
}

func TestAllPoliciesSkewedCorrectness(t *testing.T) {
	cfg := testCfg()
	txns := genTxns(cfg, tpcc.Skewed(), 500)
	var snaps []string
	for _, pol := range policies() {
		db, _ := tpcc.NewDatabase(cfg)
		c := buildCluster(db, cfg, pol)
		c.run(txns)
		if c.committed != 500 {
			t.Fatalf("%v: committed=%d", pol, c.committed)
		}
		if _, err := tpcc.Verify(db, cfg); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		snaps = append(snaps, snapshot(db, cfg))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("skewed end states diverge: %s vs %s", snaps[0], snaps[i])
		}
	}
}

func TestNewOrderMixWithAborts(t *testing.T) {
	cfg := testCfg()
	mix := tpcc.MixedOLTP()
	mix.InvalidItemFrac = 0.2 // force plenty of §2.4.1.4 rollbacks
	txns := genTxns(cfg, mix, 400)
	wantAborts := 0
	for _, txn := range txns {
		if !Valid(&txn, cfg.Items) {
			wantAborts++
		}
	}
	if wantAborts == 0 {
		t.Fatal("test needs some invalid transactions")
	}
	for _, pol := range policies() {
		db, _ := tpcc.NewDatabase(cfg)
		c := buildCluster(db, cfg, pol)
		c.run(txns)
		if c.aborted != wantAborts {
			t.Fatalf("%v: aborted=%d, want %d", pol, c.aborted, wantAborts)
		}
		if c.committed != 400-wantAborts {
			t.Fatalf("%v: committed=%d", pol, c.committed)
		}
		if _, err := tpcc.Verify(db, cfg); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

// TestStreamingBeatsNaiveUnderSkew asserts the core Figure 5 shape in
// miniature: under contention, streaming CC completes the same work in
// less virtual time than naive intra-transaction parallelism, and
// precise-intra lands in between.
func TestStreamingBeatsNaiveUnderSkew(t *testing.T) {
	cfg := testCfg()
	txns := genTxns(cfg, tpcc.Skewed(), 800)
	times := make(map[Policy]sim.Time)
	for _, pol := range policies() {
		db, _ := tpcc.NewDatabase(cfg)
		c := buildCluster(db, cfg, pol)
		c.run(txns)
		times[pol] = c.lastDone
	}
	if times[StreamingCC] >= times[NaiveIntra] {
		t.Fatalf("streaming CC (%v) not faster than naive (%v)",
			times[StreamingCC], times[NaiveIntra])
	}
	if times[PreciseIntra] >= times[NaiveIntra] {
		t.Fatalf("precise intra (%v) not faster than naive (%v)",
			times[PreciseIntra], times[NaiveIntra])
	}
}

// TestSharedNothingScalesWhenPartitionable: the same work spread over 4
// warehouses finishes much faster than when skewed to 1 under
// shared-nothing routing (inter-transaction parallelism).
func TestSharedNothingScalesWhenPartitionable(t *testing.T) {
	cfg := testCfg()
	uniform := genTxns(cfg, tpcc.Partitionable(), 800)
	skewed := genTxns(cfg, tpcc.Skewed(), 800)

	db1, _ := tpcc.NewDatabase(cfg)
	c1 := buildCluster(db1, cfg, SharedNothing)
	c1.run(uniform)

	db2, _ := tpcc.NewDatabase(cfg)
	c2 := buildCluster(db2, cfg, SharedNothing)
	c2.run(skewed)

	if c1.lastDone >= c2.lastDone {
		t.Fatalf("partitionable (%v) should beat skewed (%v) under shared-nothing",
			c1.lastDone, c2.lastDone)
	}
	// Imbalance at this small transaction count and the 15% remote
	// payments keep the speedup below the ideal 4x.
	speedup := float64(c2.lastDone) / float64(c1.lastDone)
	if speedup < 1.5 {
		t.Fatalf("shared-nothing speedup = %.2fx, want >1.5x across 4 partitions", speedup)
	}
}

func TestProgramShapes(t *testing.T) {
	pay := tpcc.Txn{Kind: tpcc.TxnPayment, Payment: tpcc.Payment{
		W: 1, D: 2, CW: 1, CD: 2, C: 3, Amount: 10,
	}}
	ops := Program(pay)
	if len(ops) != 4 {
		t.Fatalf("payment ops = %d, want 4", len(ops))
	}
	classes := []Class{ClassWarehouse, ClassDistrict, ClassCustomer, ClassHistory}
	for i, op := range ops {
		if op.Class() != classes[i] {
			t.Fatalf("op %d class = %v, want %v", i, op.Class(), classes[i])
		}
		if op.Warehouse() != 1 {
			t.Fatalf("op %d warehouse = %d", i, op.Warehouse())
		}
	}

	no := tpcc.Txn{Kind: tpcc.TxnNewOrder, NewOrder: tpcc.NewOrder{
		W: 0, D: 1, C: 1,
		Lines: []tpcc.NewOrderLine{
			{Item: 1, SupplyW: 0, Qty: 1},
			{Item: 2, SupplyW: 3, Qty: 2},
			{Item: 3, SupplyW: 0, Qty: 1},
		},
	}}
	ops = Program(no)
	if len(ops) != 3 { // InsertOrder + stock@0 + stock@3
		t.Fatalf("new-order ops = %d, want 3", len(ops))
	}
	if ops[1].(*UpdateStock).SupplyW != 0 || len(ops[1].(*UpdateStock).Lines) != 2 {
		t.Fatal("stock grouping by supply warehouse broken")
	}
	if ops[2].(*UpdateStock).SupplyW != 3 {
		t.Fatal("remote stock segment missing")
	}
}

func TestValidDetectsRollback(t *testing.T) {
	ok := tpcc.Txn{Kind: tpcc.TxnNewOrder, NewOrder: tpcc.NewOrder{
		Lines: []tpcc.NewOrderLine{{Item: 5}},
	}}
	bad := tpcc.Txn{Kind: tpcc.TxnNewOrder, NewOrder: tpcc.NewOrder{
		Lines: []tpcc.NewOrderLine{{Item: 5}, {Item: -1}},
	}}
	if !Valid(&ok, 10) || Valid(&bad, 10) {
		t.Fatal("Valid broken")
	}
	// The catalog holds ids 0..items-1: the first id past it rolls back.
	last := tpcc.Txn{Kind: tpcc.TxnNewOrder, NewOrder: tpcc.NewOrder{
		Lines: []tpcc.NewOrderLine{{Item: 9}},
	}}
	past := tpcc.Txn{Kind: tpcc.TxnNewOrder, NewOrder: tpcc.NewOrder{
		Lines: []tpcc.NewOrderLine{{Item: 5}, {Item: 10}},
	}}
	if !Valid(&last, 10) || Valid(&past, 10) {
		t.Fatal("Valid accepts an item id past the catalog")
	}
	if !Valid(&tpcc.Txn{Kind: tpcc.TxnPayment}, 10) {
		t.Fatal("payments are always valid")
	}
}

// TestOpsAgainstStorageDirect exercises each op outside the cluster.
func TestOpsAgainstStorageDirect(t *testing.T) {
	cfg := testCfg()
	db, _ := tpcc.NewDatabase(cfg)
	var charged sim.Time
	costs := sim.DefaultCosts()
	var undo storage.UndoLog
	e := &Exec{DB: db, Costs: &costs, Charge: func(d sim.Time) { charged += d }, Undo: &undo}

	if err := (&UpdateWarehouseYTD{W: 0, Amount: 5}).Run(e); err != nil {
		t.Fatal(err)
	}
	if err := (&PayCustomer{W: 0, D: 1, ByLast: true, Last: 0, Amount: 5}).Run(e); err != nil {
		t.Fatal(err)
	}
	if charged == 0 {
		t.Fatal("no cost charged")
	}
	// Rollback restores initial state (w_ytd seeds at 30000/district).
	undo.Rollback()
	wt := db.Partition(0).Table(tpcc.TWarehouse)
	slot, _ := wt.Lookup(tpcc.WarehouseKey(0))
	want := 30000 * float64(cfg.Districts)
	if got := wt.Field(slot, wt.Schema.MustCol("w_ytd")).F; got != want {
		t.Fatalf("w_ytd after rollback = %v, want %v", got, want)
	}

	// Invalid item aborts InsertOrder and undo removes partial rows.
	var undo2 storage.UndoLog
	e2 := &Exec{DB: db, Costs: &costs, Charge: func(sim.Time) {}, Undo: &undo2}
	ordersBefore := db.Partition(0).Table(tpcc.TOrders).Rows()
	err := (&InsertOrder{W: 0, D: 1, C: 1, Year: 2019,
		Lines: []tpcc.NewOrderLine{{Item: 1, SupplyW: 0, Qty: 1}, {Item: -1}}}).Run(e2)
	if err != ErrAbort {
		t.Fatalf("err = %v, want ErrAbort", err)
	}
	undo2.Rollback()
	if db.Partition(0).Table(tpcc.TOrders).Rows() != ordersBefore {
		t.Fatal("aborted order row survived rollback")
	}
	if _, err := tpcc.Verify(db, cfg); err != nil {
		t.Fatalf("post-rollback consistency: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if SharedNothing.String() != "shared-nothing" || StreamingCC.String() != "streaming-cc" {
		t.Fatal("policy names")
	}
	if ClassCustomer.String() != "customer" {
		t.Fatal("class names")
	}
}
