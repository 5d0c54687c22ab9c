package anydb_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anydb"
	"anydb/internal/tpcc"
)

var bg = context.Background()

func open(t *testing.T) *anydb.Cluster {
	t.Helper()
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 2, CustomersPerDistrict: 50,
		InitialOrdersPerDist: 30, Items: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestOpenDefaults(t *testing.T) {
	c := open(t)
	st := c.Stats()
	if st.Servers != 2 || st.ACs != 8 || st.Warehouses != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOpenRejectsTinyTopology: Open returns an error — never a panic,
// and never a cluster whose first Verify fails — for a topology too
// small to host the control roles or a database size the storage key
// layout (12-bit warehouse, 8-bit district) cannot hold. The bounds
// themselves still open clean.
func TestOpenRejectsTinyTopology(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  anydb.Config
	}{
		{"Servers=1", anydb.Config{Servers: 1}},
		// CoresPerServer < 4 used to panic indexing the control server's
		// role ACs.
		{"CoresPerServer=1", anydb.Config{CoresPerServer: 1}},
		{"CoresPerServer=2", anydb.Config{CoresPerServer: 2}},
		{"CoresPerServer=3", anydb.Config{CoresPerServer: 3}},
		{"Warehouses=-1", anydb.Config{Warehouses: -1}},
		{"Warehouses=4097", anydb.Config{Warehouses: 4097}},
		{"Districts=-2", anydb.Config{Districts: -2}},
		{"Districts=256", anydb.Config{Districts: 256}},
		{"Districts=300", anydb.Config{Warehouses: 2, Districts: 300}},
		{"CustomersPerDistrict=-5", anydb.Config{CustomersPerDistrict: -5}},
		{"Items=-1", anydb.Config{Items: -1}},
		{"InitialOrdersPerDist=-3", anydb.Config{InitialOrdersPerDist: -3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if c, err := anydb.Open(tc.cfg); err == nil {
				c.Close()
				t.Fatalf("%+v accepted", tc.cfg)
			}
		})
	}
	c, err := anydb.Open(anydb.Config{
		CoresPerServer: 4, Warehouses: 2, Districts: 255,
		CustomersPerDistrict: 4, InitialOrdersPerDist: 2, Items: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Verify(); err != nil {
		t.Fatalf("255 districts: %v", err)
	}
}

func TestPaymentAndVerify(t *testing.T) {
	c := open(t)
	ok, err := c.Payment(anydb.Payment{Warehouse: 1, District: 2, Customer: 3, Amount: 10})
	if err != nil || !ok {
		t.Fatalf("payment: ok=%v err=%v", ok, err)
	}
	ok, err = c.Payment(anydb.Payment{
		Warehouse: 0, District: 1, ByLastName: true, LastName: "BARBAROUGHT", Amount: 5,
	})
	if err != nil || !ok {
		t.Fatalf("by-last payment: ok=%v err=%v", ok, err)
	}
	if _, err := c.Payment(anydb.Payment{
		Warehouse: 0, District: 1, ByLastName: true, LastName: "NOTANAME",
	}); err == nil {
		t.Fatal("bad last name accepted")
	}
	// Remote payment (customer at another warehouse).
	ok, err = c.Payment(anydb.Payment{
		Warehouse: 0, District: 1, Customer: 2, Amount: 7,
		CustomerWarehouse: 3, CustomerDistrict: 2,
	})
	if err != nil || !ok {
		t.Fatalf("remote payment: ok=%v err=%v", ok, err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderCommitAndRollback(t *testing.T) {
	c := open(t)
	ok, err := c.NewOrder(anydb.NewOrder{
		Warehouse: 2, District: 1, Customer: 4,
		Lines: []anydb.OrderLine{{Item: 1, Qty: 2, SupplyWarehouse: 2}},
	})
	if err != nil || !ok {
		t.Fatalf("new-order: ok=%v err=%v", ok, err)
	}
	ok, err = c.NewOrder(anydb.NewOrder{
		Warehouse: 2, District: 1, Customer: 4,
		Lines: []anydb.OrderLine{{Item: -5, Qty: 1, SupplyWarehouse: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("invalid item committed")
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPayments(t *testing.T) {
	c := open(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ok, err := c.Payment(anydb.Payment{
					Warehouse: g % 4, District: 1 + i%2,
					Customer: 1 + i%50, Amount: 1,
				})
				if err != nil || !ok {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicySwitchUnderLoad(t *testing.T) {
	c := open(t)
	// Interleave policy switches with bursts of skewed payments.
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					c.Payment(anydb.Payment{
						Warehouse: 0, District: 1, Customer: 1 + i%50, Amount: 2,
					})
				}
			}()
		}
		wg.Wait()
		pol := anydb.StreamingCC
		if round%2 == 1 {
			pol = anydb.SharedNothing
		}
		if err := c.SetPolicy(bg, pol); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	// A value outside Policies() is refused, not run as an unnamed
	// hybrid, and the cluster keeps serving under the last policy.
	for _, pol := range []anydb.Policy{-1, anydb.Policy(len(anydb.Policies())), 9} {
		if err := c.SetPolicy(bg, pol); err == nil {
			t.Fatalf("SetPolicy(%d) accepted", int(pol))
		}
	}
	if ok, err := c.Payment(anydb.Payment{Warehouse: 0, District: 1, Customer: 1, Amount: 2}); err != nil || !ok {
		t.Fatalf("payment after refused switches: ok=%v err=%v", ok, err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestNewOrderItemPastCatalog: the item catalog holds ids 0..Items-1, and
// a new-order naming the first id past it (or any later one) rolls back
// at the dispatcher like the §2.4.1.4 unused id, before any executor
// sees it, under either routing policy and with a remote supply line.
// The cluster keeps serving and stays consistent.
func TestNewOrderItemPastCatalog(t *testing.T) {
	c := open(t) // Items: 40
	const items = 40
	for _, pol := range []anydb.Policy{anydb.SharedNothing, anydb.StreamingCC} {
		if err := c.SetPolicy(bg, pol); err != nil {
			t.Fatal(err)
		}
		for _, item := range []int{items, items + 7} {
			ok, err := c.NewOrder(anydb.NewOrder{
				Warehouse: 1, District: 1, Customer: 1,
				Lines: []anydb.OrderLine{
					{Item: 3, Qty: 1, SupplyWarehouse: 1},
					{Item: item, Qty: 1, SupplyWarehouse: 2},
				},
			})
			if err != nil {
				t.Fatalf("%v: item %d: %v", pol, item, err)
			}
			if ok {
				t.Fatalf("%v: item %d, past the catalog, committed", pol, item)
			}
		}
		ok, err := c.NewOrder(anydb.NewOrder{
			Warehouse: 1, District: 1, Customer: 1,
			Lines: []anydb.OrderLine{{Item: items - 1, Qty: 1, SupplyWarehouse: 2}},
		})
		if err != nil || !ok {
			t.Fatalf("%v: the catalog's last item: ok=%v err=%v", pol, ok, err)
		}
		ok, err = c.Payment(anydb.Payment{Warehouse: 2, District: 1, Customer: 1, Amount: 1})
		if err != nil || !ok {
			t.Fatalf("%v: payment after the rollbacks: ok=%v err=%v", pol, ok, err)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRejectsOutOfRangeIDs: a warehouse, district or customer id
// outside the database, or a payment amount that is NaN or infinite,
// fails at the entry, through the Cluster and the Session entry points
// alike, before anything counts it in flight. Such ids used to panic the
// caller or an AC, wedge Close, or commit a new-order for a customer
// that does not exist; such an amount committed and left Verify failing
// for good.
func TestSubmitRejectsOutOfRangeIDs(t *testing.T) {
	c, err := anydb.Open(anydb.Config{
		Warehouses: 2, Districts: 2, CustomersPerDistrict: 30, Items: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	line := func(supply int) []anydb.OrderLine {
		return []anydb.OrderLine{{Item: 1, Qty: 1, SupplyWarehouse: supply}}
	}
	payments := []anydb.Payment{
		{Warehouse: -1, District: 1, Customer: 1, Amount: 1},
		{Warehouse: 2, District: 1, Customer: 1, Amount: 1},
		{Warehouse: 0, District: 0, Customer: 1, Amount: 1},
		{Warehouse: 0, District: 99, Customer: 1, Amount: 1},
		{Warehouse: 0, District: 1, Customer: 0, Amount: 1},
		{Warehouse: 0, District: 1, Customer: 9999, Amount: 1},
		{Warehouse: 0, District: 1, Customer: 1, CustomerWarehouse: 99, CustomerDistrict: 1, Amount: 1},
		{Warehouse: 0, District: 1, Customer: 1, CustomerWarehouse: 1, CustomerDistrict: 99, Amount: 1},
		{Warehouse: 99, District: 1, ByLastName: true, LastName: "BARBARBAR", Amount: 1},
		{Warehouse: 0, District: 1, Customer: 1, Amount: math.NaN()},
		{Warehouse: 0, District: 1, Customer: 1, Amount: math.Inf(1)},
		{Warehouse: 0, District: 1, Customer: 1, Amount: math.Inf(-1)},
	}
	orders := []anydb.NewOrder{
		{Warehouse: 99, District: 1, Customer: 1, Lines: line(0)},
		{Warehouse: -1, District: 1, Customer: 1, Lines: line(0)},
		{Warehouse: 0, District: 99, Customer: 1, Lines: line(0)},
		{Warehouse: 0, District: 1, Customer: 9999, Lines: line(0)},
		{Warehouse: 0, District: 1, Customer: 1, Lines: line(99)},
		{Warehouse: 0, District: 1, Customer: 1, Lines: line(-1)},
	}
	s := c.Session()
	defer s.Close()
	submitters := []struct {
		name     string
		payment  func(context.Context, anydb.Payment) (*anydb.Future, error)
		newOrder func(context.Context, anydb.NewOrder) (*anydb.Future, error)
	}{
		{"Cluster", c.SubmitPayment, c.SubmitNewOrder},
		{"Session", s.SubmitPayment, s.SubmitNewOrder},
	}
	for _, pol := range []anydb.Policy{anydb.SharedNothing, anydb.StreamingCC} {
		if err := c.SetPolicy(bg, pol); err != nil {
			t.Fatal(err)
		}
		for _, sub := range submitters {
			for _, p := range payments {
				if f, err := sub.payment(bg, p); err == nil || f != nil {
					t.Errorf("%v %s: payment %+v: future %v, err %v; want an error", pol, sub.name, p, f, err)
				}
			}
			for _, no := range orders {
				if f, err := sub.newOrder(bg, no); err == nil || f != nil {
					t.Errorf("%v %s: new-order %+v: future %v, err %v; want an error", pol, sub.name, no, f, err)
				}
			}
		}
	}
	if ok, err := c.Payment(anydb.Payment{Warehouse: 1, District: 2, Customer: 30, Amount: 1}); err != nil || !ok {
		t.Fatalf("valid payment after the rejections: ok=%v err=%v", ok, err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: a rejected submission is still counted in flight")
	}
}

// TestPolicySwitchMidFlight reroutes while transactions are genuinely
// in flight on the real engine: worker goroutines never pause while a
// switcher flips the policy. Every submission must resolve exactly once
// (no lost, no double-committed transactions) and the TPC-C consistency
// conditions must hold at the end.
func TestPolicySwitchMidFlight(t *testing.T) {
	c := open(t)
	const workers, perWorker = 8, 60
	var committed, rolledBack int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Contended traffic (warehouse 0) interleaved with
				// spread traffic, plus a rollback every few txns.
				if i%5 == 4 {
					ok, err := c.NewOrder(anydb.NewOrder{
						Warehouse: 0, District: 1, Customer: 1 + i%50,
						Lines: []anydb.OrderLine{{Item: -1, Qty: 1, SupplyWarehouse: 0}},
					})
					if err != nil {
						errs <- err
						return
					}
					if ok {
						errs <- fmt.Errorf("invalid item committed")
						return
					}
					atomic.AddInt64(&rolledBack, 1)
					continue
				}
				ok, err := c.Payment(anydb.Payment{
					Warehouse: (g * i) % 4, District: 1 + i%2,
					Customer: 1 + i%50, Amount: 1,
				})
				if err != nil || !ok {
					errs <- fmt.Errorf("payment ok=%v err=%v", ok, err)
					return
				}
				atomic.AddInt64(&committed, 1)
			}
		}(g)
	}
	switching := make(chan struct{})
	go func() {
		defer close(switching)
		for round := 0; round < 10; round++ {
			pol := anydb.StreamingCC
			if round%2 == 1 {
				pol = anydb.SharedNothing
			}
			if err := c.SetPolicy(bg, pol); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-switching
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	wantCommitted := int64(workers * perWorker * 4 / 5)
	if committed != wantCommitted || rolledBack != int64(workers*perWorker/5) {
		t.Fatalf("committed=%d rolledBack=%d, want %d/%d",
			committed, rolledBack, wantCommitted, workers*perWorker/5)
	}
	if n := c.Stats().UnmatchedDone; n != 0 {
		t.Fatalf("%d transactions resolved without a waiter (lost or double-committed)", n)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoAdaptSwitchesOnSkew runs the self-driving cluster under fully
// skewed traffic and waits for the controller to reroute to streaming
// CC on its own.
func TestAutoAdaptSwitchesOnSkew(t *testing.T) {
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 2, CustomersPerDistrict: 50,
		InitialOrdersPerDist: 30, Items: 40,
		AutoAdapt: true, AdaptWindow: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The controller owns the routing: manual switches are rejected.
	if err := c.SetPolicy(bg, anydb.StreamingCC); err == nil {
		t.Fatal("manual SetPolicy accepted on a self-driving cluster")
	}

	deadline := time.Now().Add(10 * time.Second)
	var switched bool
	for !switched && time.Now().Before(deadline) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					c.Payment(anydb.Payment{
						Warehouse: 0, District: 1, Customer: 1 + (g*100+i)%50, Amount: 1,
					})
				}
			}(g)
		}
		wg.Wait()
		for _, ev := range c.AdaptationLog() {
			if ev.From == anydb.SharedNothing && ev.To == anydb.StreamingCC {
				switched = true
			}
		}
	}
	if !switched {
		t.Fatalf("controller never switched to streaming CC; log: %+v", c.AdaptationLog())
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoAdaptGrowsForAnalytics checks the elasticity half of the
// loop: analytical load makes the controller add a server.
func TestAutoAdaptGrowsForAnalytics(t *testing.T) {
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 2, CustomersPerDistrict: 50,
		InitialOrdersPerDist: 30, Items: 40, AutoAdapt: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := c.Stats().Servers
	if _, err := c.OpenOrders(bg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Servers == before && time.Now().Before(deadline) {
		// The grow decision rides the signal stream; a little OLTP
		// traffic keeps it flowing.
		c.Payment(anydb.Payment{Warehouse: 0, District: 1, Customer: 1, Amount: 1})
		time.Sleep(time.Millisecond)
	}
	if got := c.Stats().Servers; got != before+1 {
		t.Fatalf("servers = %d, want %d (one elastic grow)", got, before+1)
	}
	// The applier logs the grow after the new server is already visible
	// in Stats, so the entry is polled for up to the same deadline.
	grew := func() bool {
		for _, ev := range c.AdaptationLog() {
			if ev.Grew {
				return true
			}
		}
		return false
	}
	for !grew() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !grew() {
		t.Fatalf("no grow event in log: %+v", c.AdaptationLog())
	}
	// Analytics keeps working on the grown cluster.
	if _, err := c.OpenOrders(bg); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingCCCorrectness(t *testing.T) {
	c := open(t)
	if err := c.SetPolicy(bg, anydb.StreamingCC); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Payment(anydb.Payment{
					Warehouse: 0, District: 1, Customer: 1 + (g*50+i)%50, Amount: 3,
				})
			}
		}(g)
	}
	wg.Wait()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenOrdersQuery(t *testing.T) {
	c := open(t)
	rows, err := c.OpenOrders(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rows <= 0 {
		t.Fatalf("rows = %d, want > 0", rows)
	}
	// Beamed and unbeamed agree.
	rows2, err := c.OpenOrdersOpts(bg, anydb.QueryOptions{Beam: false})
	if err != nil {
		t.Fatal(err)
	}
	if rows2 != rows {
		t.Fatalf("beam on/off disagree: %d vs %d", rows, rows2)
	}
}

func TestBeamingOverlapsCompile(t *testing.T) {
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 6, CustomersPerDistrict: 400,
		InitialOrdersPerDist: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const compile = 80 * time.Millisecond
	c.OpenOrdersOpts(bg, anydb.QueryOptions{Beam: false}) // warm-up

	start := time.Now()
	rows1, err := c.OpenOrdersOpts(bg, anydb.QueryOptions{Beam: false, CompileDelay: compile})
	if err != nil {
		t.Fatal(err)
	}
	unbeamed := time.Since(start)

	start = time.Now()
	rows2, err := c.OpenOrdersOpts(bg, anydb.QueryOptions{Beam: true, CompileDelay: compile})
	if err != nil {
		t.Fatal(err)
	}
	beamed := time.Since(start)

	if rows1 != rows2 {
		t.Fatalf("results differ: %d vs %d", rows1, rows2)
	}
	if beamed >= unbeamed {
		t.Logf("note: beamed %v vs unbeamed %v — overlap not visible at this scale", beamed, unbeamed)
	}
}

func TestOLTPWithConcurrentOLAP(t *testing.T) {
	c := open(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if _, err := c.OpenOrders(bg); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		c.Payment(anydb.Payment{Warehouse: i % 4, District: 1, Customer: 1 + i%50, Amount: 1})
	}
	<-done
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAddServer(t *testing.T) {
	c := open(t)
	before, err := c.OpenOrders(bg)
	if err != nil {
		t.Fatal(err)
	}
	// A server without cores adds nothing: no panic, and no empty
	// server left to strand the query planner.
	for _, cores := range []int{0, -3} {
		if n := c.AddServer(cores); n != 0 {
			t.Fatalf("AddServer(%d) = %d, want 0", cores, n)
		}
	}
	if c.Stats().Servers != 2 {
		t.Fatalf("AddServer without cores grew the cluster to %d servers", c.Stats().Servers)
	}
	if n, err := c.OpenOrders(bg); err != nil || n != before {
		t.Fatalf("query after a refused AddServer: %d, %v (want %d)", n, err, before)
	}
	if n := c.AddServer(4); n != 4 {
		t.Fatalf("AddServer = %d", n)
	}
	if c.Stats().Servers != 3 {
		t.Fatal("server count did not grow")
	}
	after, err := c.OpenOrders(bg)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("query result changed after scale-out: %d vs %d", before, after)
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	c := open(t)
	c.Close()
	c.Close()
	if _, err := c.Payment(anydb.Payment{Warehouse: 0, District: 1, Customer: 1, Amount: 1}); err == nil {
		t.Fatal("payment accepted on closed cluster")
	}
	if _, err := c.OpenOrders(bg); err == nil {
		t.Fatal("query accepted on closed cluster")
	}
	if err := c.SetPolicy(bg, anydb.StreamingCC); err == nil {
		t.Fatal("SetPolicy accepted on closed cluster")
	}
}

func TestPolicyString(t *testing.T) {
	want := map[anydb.Policy]string{
		anydb.SharedNothing: "shared-nothing",
		anydb.NaiveIntra:    "naive-intra",
		anydb.PreciseIntra:  "precise-intra",
		anydb.StreamingCC:   "streaming-cc",
	}
	if len(anydb.Policies()) != len(want) {
		t.Fatalf("Policies() = %v", anydb.Policies())
	}
	for _, p := range anydb.Policies() {
		if p.String() != want[p] {
			t.Errorf("policy %d = %q, want %q", int(p), p.String(), want[p])
		}
	}
	// Regression: String used to report "streaming-cc" for every
	// non-SharedNothing value.
	if anydb.NaiveIntra.String() == "streaming-cc" || anydb.PreciseIntra.String() == "streaming-cc" {
		t.Fatal("intra-txn policies stringify as streaming-cc")
	}
}

func TestSQLQueryCount(t *testing.T) {
	c := open(t)
	var n int64
	if err := c.QueryRow(bg, "SELECT COUNT(*) FROM district").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 4*2 { // 4 warehouses × 2 districts
		t.Fatalf("district count = %d, want 8", n)
	}
}

func TestSQLQueryJoinMatchesOpenOrders(t *testing.T) {
	c := open(t)
	want, err := c.OpenOrders(bg)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	err = c.QueryRow(bg, tpcc.Q3SQL).Scan(&got)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SQL count %d != OpenOrders %d", got, want)
	}
}

// TestSidewaysFilterKeepsJoinResults: a plain Query holds each join's
// probe-side scan until the build side is complete and ships only the
// rows whose key the build has; OpenOrders beamed into a compile window
// ships the probe sides whole. Both must agree, before and after writes
// dirty the chunks, a projected join must return exactly the rows a
// client-side join of its two base tables gives, and a join whose build
// side is empty returns nothing.
func TestSidewaysFilterKeepsJoinResults(t *testing.T) {
	c := open(t)
	agree := func() {
		t.Helper()
		whole, err := c.OpenOrdersOpts(bg, anydb.QueryOptions{Beam: true, CompileDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var filtered int64
		if err := c.QueryRow(bg, tpcc.Q3SQL).Scan(&filtered); err != nil {
			t.Fatal(err)
		}
		if whole == 0 || filtered != whole {
			t.Fatalf("filtered Q3 = %d, unfiltered = %d", filtered, whole)
		}
	}
	agree()
	for i := 0; i < 40; i++ {
		if _, err := c.NewOrder(anydb.NewOrder{
			Warehouse: i % 4, District: 1, Customer: 1 + i%30,
			Lines: []anydb.OrderLine{{Item: 1 + i%30, Qty: 1, SupplyWarehouse: i % 4}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	agree()

	collect := func(text string) map[[4]int64]int {
		t.Helper()
		rows, err := c.Query(bg, text)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		out := map[[4]int64]int{}
		for rows.Next() {
			var k [4]int64
			if err := rows.Scan(&k[0], &k[1], &k[2], &k[3]); err != nil {
				t.Fatal(err)
			}
			out[k]++
		}
		return out
	}
	cust := map[[3]int64]bool{}
	for k := range collect("SELECT c_w_id, c_d_id, c_id, c_id FROM customer WHERE c_state LIKE 'A%'") {
		cust[[3]int64{k[0], k[1], k[2]}] = true
	}
	want := map[[4]int64]int{}
	for k, n := range collect("SELECT o_w_id, o_d_id, o_c_id, o_id FROM orders WHERE o_entry_d >= 2007") {
		if cust[[3]int64{k[0], k[1], k[2]}] {
			want[k] += n
		}
	}
	got := collect(`SELECT o_w_id, o_d_id, o_c_id, o_id FROM customer
		JOIN orders ON customer.c_w_id = orders.o_w_id AND customer.c_d_id = orders.o_d_id AND customer.c_id = orders.o_c_id
		WHERE c_state LIKE 'A%' AND o_entry_d >= 2007`)
	if len(want) == 0 || !maps.Equal(got, want) {
		t.Fatalf("join returned %d distinct rows, client-side join %d", len(got), len(want))
	}

	var none int64
	if err := c.QueryRow(bg, strings.Replace(tpcc.Q3SQL, "LIKE 'A%'", "LIKE 'ZZZ%'", 1)).Scan(&none); err != nil {
		t.Fatal(err)
	}
	if none != 0 {
		t.Fatalf("Q3 over an empty build side = %d", none)
	}
}

// TestSQLDuplicateProjectedColumn: selecting one column twice returns it
// twice, under uniquified names, instead of crashing the sink's AC.
func TestSQLDuplicateProjectedColumn(t *testing.T) {
	c := open(t)
	rows, err := c.Query(bg, "SELECT c_id, c_last, c_id FROM customer WHERE c_w_id = 1 AND c_d_id = 1 AND c_id <= 3 ORDER BY c_id")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 3 || cols[0] != "c_id" || cols[2] != "c_id_2" {
		t.Fatalf("columns = %v", cols)
	}
	n := 0
	for rows.Next() {
		var a, b int64
		var last string
		if err := rows.Scan(&a, &last, &b); err != nil {
			t.Fatal(err)
		}
		if n++; a != int64(n) || b != a || last == "" {
			t.Fatalf("row %d = (%d, %q, %d)", n, a, last, b)
		}
	}
	if n != 3 {
		t.Fatalf("%d rows, want 3", n)
	}
}

// TestSQLJoinOnNonIntColumnRejected: the hash join keys on int columns
// only, so a join on a string or float column must fail at planning with
// an error naming the column — not crash an AC mid-query — and the
// cluster must go on answering queries.
func TestSQLJoinOnNonIntColumnRejected(t *testing.T) {
	c := open(t)
	for _, tc := range []struct{ sql, col string }{
		{"SELECT COUNT(*) FROM customer JOIN warehouse ON customer.c_state = warehouse.w_state", "c_state"},
		{"SELECT COUNT(*) FROM customer JOIN warehouse ON customer.c_balance = warehouse.w_ytd", "c_balance"},
	} {
		rows, err := c.Query(bg, tc.sql)
		if err == nil {
			rows.Close()
			t.Fatalf("%q: no error", tc.sql)
		}
		if !strings.Contains(err.Error(), tc.col) {
			t.Fatalf("%q: error %q does not name %s", tc.sql, err, tc.col)
		}
	}
	want, err := c.OpenOrders(bg)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	if err := c.QueryRow(bg, tpcc.Q3SQL).Scan(&got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Q3 after rejected joins = %d, want %d", got, want)
	}
}

func TestSQLQueryProjection(t *testing.T) {
	c := open(t)
	rows, err := c.Query(bg, "SELECT c_id, c_last FROM customer WHERE c_w_id = 1 AND c_d_id = 1 AND c_id <= 2 ORDER BY c_id")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "c_id" || cols[1] != "c_last" {
		t.Fatalf("columns = %v", cols)
	}
	var got []int64
	for rows.Next() {
		var id int64
		var last string
		if err := rows.Scan(&id, &last); err != nil {
			t.Fatal(err)
		}
		if last == "" {
			t.Fatal("empty last name")
		}
		got = append(got, id)
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ids = %v, want [1 2]", got)
	}
	if rows.Truncated() {
		t.Fatal("tiny result truncated")
	}
}

func TestSQLQueryGroupedAggregate(t *testing.T) {
	c := open(t)
	rows, err := c.Query(bg, `SELECT o_d_id, COUNT(*), AVG(o_ol_cnt) FROM orders
		GROUP BY o_d_id ORDER BY o_d_id`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var districts []int64
	var total int64
	for rows.Next() {
		var d, n int64
		var avg float64
		if err := rows.Scan(&d, &n, &avg); err != nil {
			t.Fatal(err)
		}
		if avg <= 0 {
			t.Fatalf("district %d avg = %v", d, avg)
		}
		districts = append(districts, d)
		total += n
	}
	if len(districts) != 2 || districts[0] != 1 || districts[1] != 2 {
		t.Fatalf("districts = %v, want [1 2]", districts)
	}
	// open() sizes the DB at 4 warehouses × 2 districts × 30 initial
	// orders per district.
	if total != 4*2*30 {
		t.Fatalf("total orders = %d, want 240", total)
	}
}

// TestSQLGroupOrder: GROUP BY without ORDER BY returns the groups in
// ascending order of their values — districts 1 to 12, not 1, 10, 11,
// 12, 2, … as the text of the numbers would order them — both where the
// scans fold partials the sink merges and where the sink folds a join's
// raw rows.
func TestSQLGroupOrder(t *testing.T) {
	const warehouses, districts, orders = 2, 12, 5
	c, err := anydb.Open(anydb.Config{
		Warehouses: warehouses, Districts: districts, CustomersPerDistrict: 10, Items: 20,
		InitialOrdersPerDist: orders,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range []struct{ path, sql string }{
		{"pushdown and merge", "SELECT o_d_id, COUNT(*) FROM orders GROUP BY o_d_id"},
		{"raw fold", `SELECT c_d_id, COUNT(*) FROM customer
			JOIN orders ON customer.c_w_id = orders.o_w_id AND customer.c_d_id = orders.o_d_id AND customer.c_id = orders.o_c_id
			GROUP BY c_d_id`},
	} {
		rows, err := c.Query(bg, q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.path, err)
		}
		var got []int64
		for rows.Next() {
			var d, n int64
			if err := rows.Scan(&d, &n); err != nil {
				t.Fatalf("%s: %v", q.path, err)
			}
			if n != warehouses*orders {
				t.Errorf("%s: district %d counts %d orders, want %d", q.path, d, n, warehouses*orders)
			}
			got = append(got, d)
		}
		rows.Close()
		want := make([]int64, districts)
		for i := range want {
			want[i] = int64(i + 1)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: districts %v, want %v", q.path, got, want)
		}
	}
}

func TestSQLQueryErrors(t *testing.T) {
	c := open(t)
	if _, err := c.Query(bg, "SELECT COUNT(*) FROM nosuch"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := c.Query(bg, "this is not sql"); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := c.QueryRow(bg, "SELECT COUNT(*) FROM nosuch").Scan(new(int64)); err == nil {
		t.Fatal("QueryRow deferred no error")
	}
	// QueryRow over an empty result reports ErrNoRows.
	err := c.QueryRow(bg, "SELECT c_id FROM customer WHERE c_id = 999999").Scan(new(int64))
	if !errors.Is(err, anydb.ErrNoRows) {
		t.Fatalf("err = %v, want ErrNoRows", err)
	}
}

// TestOpenRejectsUnknownDurability: a Durability value other than Off and
// Batch fails Open instead of silently running as Batch.
func TestOpenRejectsUnknownDurability(t *testing.T) {
	cfg := anydb.Config{Warehouses: 2, Durability: anydb.DurabilityBatch + 1, WALDir: t.TempDir()}
	if c, err := anydb.Open(cfg); err == nil {
		c.Close()
		t.Fatalf("Durability %v accepted", cfg.Durability)
	}
}

// TestAllPoliciesVerifyUnderLoad drives concurrent mixed traffic under
// each of the four §3 policies — all selectable through the public API —
// and checks the TPC-C consistency conditions after every run.
func TestAllPoliciesVerifyUnderLoad(t *testing.T) {
	for _, pol := range anydb.Policies() {
		t.Run(pol.String(), func(t *testing.T) {
			c := open(t)
			if err := c.SetPolicy(bg, pol); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						if i%4 == 3 {
							ok, err := c.NewOrder(anydb.NewOrder{
								Warehouse: (g + i) % 4, District: 1 + i%2, Customer: 1 + i%50,
								Lines: []anydb.OrderLine{{Item: i % 40, Qty: 1, SupplyWarehouse: (g + i) % 4}},
							})
							if err != nil || !ok {
								errs <- fmt.Errorf("%v new-order ok=%v err=%v", pol, ok, err)
								return
							}
							continue
						}
						// Contended traffic: half the payments hammer
						// warehouse 0.
						w := (g * i) % 4
						if i%2 == 0 {
							w = 0
						}
						ok, err := c.Payment(anydb.Payment{
							Warehouse: w, District: 1 + i%2, Customer: 1 + i%50, Amount: 1,
						})
						if err != nil || !ok {
							errs <- fmt.Errorf("%v payment ok=%v err=%v", pol, ok, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if n := c.Stats().UnmatchedDone; n != 0 {
				t.Fatalf("UnmatchedDone = %d", n)
			}
			if err := c.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSubmitPipelined keeps hundreds of transactions in flight from a
// single session and resolves them out of order.
func TestSubmitPipelined(t *testing.T) {
	c := open(t)
	const n = 300
	futs := make([]*anydb.Future, 0, n)
	for i := 0; i < n; i++ {
		f, err := c.SubmitPayment(bg, anydb.Payment{
			Warehouse: i % 4, District: 1 + i%2, Customer: 1 + i%50, Amount: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	// Wait newest-first to exercise out-of-order resolution.
	for i := len(futs) - 1; i >= 0; i-- {
		ok, err := futs[i].Wait(bg)
		if err != nil || !ok {
			t.Fatalf("future %d: ok=%v err=%v", i, ok, err)
		}
	}
	if n := c.Stats().UnmatchedDone; n != 0 {
		t.Fatalf("UnmatchedDone = %d", n)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitCanceledWaitDrainsCleanly is the cancellation contract: a
// canceled Wait returns within its deadline instead of blocking until
// Close, the abandoned transactions still complete (no leaked inflight
// count, UnmatchedDone stays 0), and the cluster drains and verifies
// cleanly afterwards.
func TestSubmitCanceledWaitDrainsCleanly(t *testing.T) {
	c := open(t)
	const n = 400
	futs := make([]*anydb.Future, 0, n)
	for i := 0; i < n; i++ {
		f, err := c.SubmitPayment(bg, anydb.Payment{
			Warehouse: 0, District: 1, Customer: 1 + i%50, Amount: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	start := time.Now()
	var canceled int
	for _, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			canceled++
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled waits took %v — they must not block until Close", elapsed)
	}
	t.Logf("%d/%d waits returned ctx.Err()", canceled, n)
	// The abandoned transactions drain through the normal accounting: a
	// policy switch (which waits for inflight == 0) must go through.
	if err := c.SetPolicy(bg, anydb.StreamingCC); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().UnmatchedDone; n != 0 {
		t.Fatalf("UnmatchedDone = %d after abandoning waits", n)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	// The cluster stays fully usable.
	ok, err := c.Payment(anydb.Payment{Warehouse: 1, District: 1, Customer: 1, Amount: 1})
	if err != nil || !ok {
		t.Fatalf("post-cancel payment: ok=%v err=%v", ok, err)
	}
}

func TestQueryCanceledPromptly(t *testing.T) {
	c := open(t)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	start := time.Now()
	_, err := c.OpenOrdersOpts(ctx, anydb.QueryOptions{Beam: true, CompileDelay: 500 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled query returned after %v", elapsed)
	}
	if err == nil {
		t.Fatal("canceled query reported success")
	}
	// The abandoned query completes in the background; the cluster keeps
	// answering.
	rows, err := c.OpenOrders(bg)
	if err != nil || rows <= 0 {
		t.Fatalf("post-cancel query: rows=%d err=%v", rows, err)
	}
	if _, err := c.Query(ctx, "SELECT COUNT(*) FROM district"); err == nil {
		t.Fatal("canceled SQL query reported success")
	}
	var n int64
	if err := c.QueryRow(bg, "SELECT COUNT(*) FROM district").Scan(&n); err != nil || n != 8 {
		t.Fatalf("post-cancel SQL: n=%d err=%v", n, err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEventsSubscription receives controller decisions as they are
// applied, without polling AdaptationLog.
func TestEventsSubscription(t *testing.T) {
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 2, CustomersPerDistrict: 50,
		InitialOrdersPerDist: 30, Items: 40,
		AutoAdapt: true, AdaptWindow: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := c.Events(bg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Payment(anydb.Payment{
					Warehouse: 0, District: 1, Customer: 1 + (g*100+i)%50, Amount: 1,
				})
			}
		}(g)
	}
	var ev anydb.AdaptationEvent
	select {
	case ev = <-events:
	case <-time.After(15 * time.Second):
		close(stop)
		wg.Wait()
		t.Fatalf("no adaptation event delivered; log: %+v", c.AdaptationLog())
	}
	close(stop)
	wg.Wait()
	if ev.From == ev.To && !ev.Grew {
		t.Fatalf("empty event: %+v", ev)
	}
	// The same event must be in the poll-style log (compatibility).
	var inLog bool
	for _, le := range c.AdaptationLog() {
		if le.From == ev.From && le.To == ev.To && le.Reason == ev.Reason {
			inLog = true
		}
	}
	if !inLog {
		t.Fatalf("event %+v missing from AdaptationLog", ev)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Close closes subscriber channels.
	select {
	case _, ok := <-events:
		if ok {
			return // a buffered event is fine; the close follows
		}
	case <-time.After(5 * time.Second):
		t.Fatal("events channel not closed by Close")
	}
}

// TestPolicySwitchDrainsQueries: a policy switch must not land while an
// analytical query is mid-flight (under the fine-grained policies writes
// leave the partition owners, so a straddling scan would race them). A
// deadline-bounded SetPolicy gives up instead of waiting out the query.
func TestPolicySwitchDrainsQueries(t *testing.T) {
	c := open(t)
	qdone := make(chan error, 1)
	go func() {
		_, err := c.OpenOrdersOpts(bg, anydb.QueryOptions{Beam: true, CompileDelay: 600 * time.Millisecond})
		qdone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the query reach the QO

	// A switch on a tight deadline must abandon the drain with the old
	// routing intact, not reroute under the scan.
	short, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	if err := c.SetPolicy(short, anydb.PreciseIntra); err == nil {
		t.Fatal("SetPolicy landed while a query was in flight")
	}

	// An unbounded switch waits the query out, then lands.
	start := time.Now()
	if err := c.SetPolicy(bg, anydb.PreciseIntra); err != nil {
		t.Fatal(err)
	}
	if err := <-qdone; err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("switch landed after %v — before the 600ms query drained", elapsed)
	}
	ok, err := c.Payment(anydb.Payment{Warehouse: 0, District: 1, Customer: 1, Amount: 1})
	if err != nil || !ok {
		t.Fatalf("payment under precise-intra: ok=%v err=%v", ok, err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleWaitPanics: a consumed (pooled) future must fail fast on a
// second Wait instead of silently stealing another session's result.
func TestDoubleWaitPanics(t *testing.T) {
	c := open(t)
	f, err := c.SubmitPayment(bg, anydb.Payment{Warehouse: 0, District: 1, Customer: 1, Amount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := f.Wait(bg); err != nil || !ok {
		t.Fatalf("first wait: ok=%v err=%v", ok, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Wait on a consumed future did not panic")
		}
	}()
	f.Wait(bg)
}

// TestSQLIntLiteralSemantics: an int comparison is exact against its
// literal, fractional literals and literals past int64 included, on the
// 20 districts (d_id 1..10) of two warehouses; each edge row has an
// integral twin. A string literal against an int column is rejected.
func TestSQLIntLiteralSemantics(t *testing.T) {
	c, err := anydb.Open(anydb.Config{Warehouses: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, tc := range []struct {
		where string
		want  int64
	}{
		{"d_id >= 2.5", 16}, {"d_id >= 3", 16},
		{"d_id > 2.5", 16}, {"d_id > 2", 16},
		{"d_id < 2.5", 4}, {"d_id < 3", 4},
		{"d_id <= 2.5", 4}, {"d_id <= 2", 4},
		{"d_id = 2.5", 0}, {"d_id = 2", 2},
		{"d_id <> 2.5", 20}, {"d_id <> 2", 18},
		{"d_id < 99999999999999999999", 20}, {"d_id < 11", 20},
		{"d_id > 9223372036854775807", 0}, {"d_id > 10", 0},
		{"d_id <= 9223372036854775807", 20}, {"d_id <= 10", 20},
	} {
		var n int64
		if err := c.QueryRow(bg, "SELECT COUNT(*) FROM district WHERE "+tc.where).Scan(&n); err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		if n != tc.want {
			t.Errorf("WHERE %s: count = %d, want %d", tc.where, n, tc.want)
		}
	}
	// A string literal does not compare with an int column.
	if rows, err := c.Query(bg, "SELECT COUNT(*) FROM district WHERE d_id < 'x'"); err == nil {
		rows.Close()
		t.Fatal("d_id < 'x' planned")
	}
}
