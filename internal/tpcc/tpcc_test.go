package tpcc

import (
	"testing"

	"anydb/internal/storage"
)

func smallCfg() Config {
	return Config{Warehouses: 2, Districts: 2, Customers: 30,
		Items: 50, InitOrders: 20, Seed: 7}.WithDefaults()
}

func TestLastNameRoundTrip(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", LastName(371))
	}
	for n := 0; n < 1000; n++ {
		if got := LastNameNum(LastName(n)); got != n {
			t.Fatalf("round trip %d -> %q -> %d", n, LastName(n), got)
		}
	}
	if LastNameNum("NOTANAME") != -1 {
		t.Fatal("invalid name did not return -1")
	}
}

func TestPopulateShape(t *testing.T) {
	cfg := smallCfg()
	db, _ := NewDatabase(cfg)
	for w := 0; w < cfg.Warehouses; w++ {
		p := db.Partition(w)
		if p.Table(TWarehouse).Rows() != 1 {
			t.Fatalf("warehouse %d: %d warehouse rows", w, p.Table(TWarehouse).Rows())
		}
		if got := p.Table(TDistrict).Rows(); got != cfg.Districts {
			t.Fatalf("districts = %d, want %d", got, cfg.Districts)
		}
		if got := p.Table(TCustomer).Rows(); got != cfg.Districts*cfg.Customers {
			t.Fatalf("customers = %d, want %d", got, cfg.Districts*cfg.Customers)
		}
		if got := p.Table(TOrders).Rows(); got != cfg.Districts*cfg.InitOrders {
			t.Fatalf("orders = %d, want %d", got, cfg.Districts*cfg.InitOrders)
		}
		wantOpen := int(float64(cfg.InitOrders) * cfg.OpenFrac)
		if got := p.Table(TNewOrder).Rows(); got != cfg.Districts*wantOpen {
			t.Fatalf("new_orders = %d, want %d", got, cfg.Districts*wantOpen)
		}
		if p.Table(TItem).Rows() != cfg.Items || p.Table(TStock).Rows() != cfg.Items {
			t.Fatal("item/stock counts wrong")
		}
		if p.Table(TOrderLine).Rows() < cfg.Districts*cfg.InitOrders*5 {
			t.Fatal("too few order lines")
		}
	}
}

func TestPopulateDeterministic(t *testing.T) {
	cfg := smallCfg()
	db1, _ := NewDatabase(cfg)
	db2, _ := NewDatabase(cfg)
	t1 := db1.Partition(1).Table(TCustomer)
	t2 := db2.Partition(1).Table(TCustomer)
	if t1.Rows() != t2.Rows() {
		t.Fatal("row counts differ")
	}
	r1, _ := t1.Get(CustomerKey(1, 2, 5))
	r2, _ := t2.Get(CustomerKey(1, 2, 5))
	for i := range r1 {
		if !r1[i].Equal(r2[i]) {
			t.Fatalf("col %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestByLastNameIndex(t *testing.T) {
	cfg := smallCfg()
	db, _ := NewDatabase(cfg)
	ct := db.Partition(0).Table(TCustomer)
	// Customer 1 of district 1 has last name LastName(0) = BARBARBAR.
	found := 0
	var foundID int64
	ct.Range(IdxCustomerByLast, CustomerLastKey(0, 1, 0), CustomerLastKey(0, 1, 1<<30),
		func(slot int32) bool {
			found++
			foundID = ct.Field(slot, ct.Schema.MustCol("c_id")).I
			return true
		})
	if found != 1 || foundID != 1 {
		t.Fatalf("by-last range found %d rows, id %d; want 1 row id 1", found, foundID)
	}
	// District separation: district 2's BARBARBAR is a different entry.
	found = 0
	ct.Range(IdxCustomerByLast, CustomerLastKey(0, 2, 0), CustomerLastKey(0, 2, 1<<30),
		func(int32) bool { found++; return true })
	if found != 1 {
		t.Fatalf("district 2 range = %d rows", found)
	}
}

func TestVerifyFreshDatabase(t *testing.T) {
	cfg := smallCfg()
	db, _ := NewDatabase(cfg)
	chk, err := Verify(db, cfg)
	if err != nil {
		t.Fatalf("fresh database violates consistency: %v", err)
	}
	if chk.Warehouses != cfg.Warehouses || chk.Orders == 0 {
		t.Fatalf("checked = %+v", chk)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	cfg := smallCfg()
	db, _ := NewDatabase(cfg)
	wt := db.Partition(0).Table(TWarehouse)
	slot, _ := wt.Lookup(WarehouseKey(0))
	wt.UpdateAt(slot, wt.Schema.MustCol("w_ytd"), storage.Float(1))
	if _, err := Verify(db, cfg); err == nil {
		t.Fatal("Verify accepted corrupted w_ytd")
	}
}

func TestGeneratorPartitionable(t *testing.T) {
	cfg := smallCfg()
	g := NewGenerator(cfg, Partitionable(), 1)
	seen := make(map[int]int)
	byLast, remote := 0, 0
	const n = 5000
	for i := 0; i < n; i++ {
		txn := g.Next()
		if txn.Kind != TxnPayment {
			t.Fatal("partitionable mix must be all payments")
		}
		p := txn.Payment
		seen[p.W]++
		if p.ByLast {
			byLast++
			if p.Last < 0 || p.Last >= cfg.Customers {
				t.Fatalf("last num %d out of populated range", p.Last)
			}
		} else if p.C < 1 || p.C > cfg.Customers {
			t.Fatalf("customer id %d out of range", p.C)
		}
		if p.CW != p.W {
			remote++
		}
		if p.D < 1 || p.D > cfg.Districts {
			t.Fatalf("district %d out of range", p.D)
		}
	}
	for w := 0; w < cfg.Warehouses; w++ {
		if f := float64(seen[w]) / n; f < 0.4 || f > 0.6 {
			t.Fatalf("warehouse %d share = %.2f, want ≈0.5", w, f)
		}
	}
	if f := float64(byLast) / n; f < 0.55 || f > 0.65 {
		t.Fatalf("by-last fraction = %.2f, want ≈0.60", f)
	}
	if f := float64(remote) / n; f < 0.10 || f > 0.20 {
		t.Fatalf("remote fraction = %.2f, want ≈0.15", f)
	}
}

func TestGeneratorSkewed(t *testing.T) {
	g := NewGenerator(smallCfg(), Skewed(), 1)
	for i := 0; i < 1000; i++ {
		txn := g.Next()
		if txn.Payment.W != 0 || txn.Payment.CW != 0 {
			t.Fatal("skewed mix produced non-hot-warehouse payment")
		}
	}
}

func TestGeneratorNewOrder(t *testing.T) {
	cfg := smallCfg()
	m := MixedOLTP()
	m.PaymentFrac = 0 // all new-order
	g := NewGenerator(cfg, m, 3)
	rollbacks := 0
	const n = 3000
	for i := 0; i < n; i++ {
		txn := g.Next()
		if txn.Kind != TxnNewOrder {
			t.Fatal("expected new-order")
		}
		no := txn.NewOrder
		if len(no.Lines) < 5 || len(no.Lines) > 15 {
			t.Fatalf("line count %d out of [5,15]", len(no.Lines))
		}
		bad := false
		for _, l := range no.Lines {
			if l.Item < 0 {
				bad = true
			} else if l.Item >= cfg.Items {
				t.Fatalf("item %d out of range", l.Item)
			}
			if l.Qty < 1 || l.Qty > 10 {
				t.Fatalf("qty %d out of range", l.Qty)
			}
		}
		if bad {
			rollbacks++
		}
	}
	if f := float64(rollbacks) / n; f < 0.002 || f > 0.03 {
		t.Fatalf("rollback fraction = %.3f, want ≈0.01", f)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(smallCfg(), MixedOLTP(), 99)
	g2 := NewGenerator(smallCfg(), MixedOLTP(), 99)
	for i := 0; i < 200; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Kind != b.Kind || a.HomeWarehouse() != b.HomeWarehouse() {
			t.Fatal("generators with same seed diverged")
		}
	}
}

func TestMixSwitch(t *testing.T) {
	g := NewGenerator(smallCfg(), Partitionable(), 5)
	g.SetMix(Skewed())
	if g.Mix().HotFrac != 1.0 {
		t.Fatal("SetMix did not take effect")
	}
	if g.Next().HomeWarehouse() != 0 {
		t.Fatal("post-switch txn not hot")
	}
}
