package route

import (
	"testing"

	"anydb/internal/core"
	"anydb/internal/oltp"
	"anydb/internal/sim"
	"anydb/internal/tpcc"
)

// simAssembly runs an Assembly on the virtual-time runtime over the
// Figure 2 layout (2 servers × 4 ACs), counting commits at the client.
func simAssembly(t *testing.T) (*Assembly, *core.SimCluster, *int) {
	t.Helper()
	db, cfg := tpcc.NewDatabase(tpcc.Config{Warehouses: 4, Districts: 2,
		Customers: 40, Items: 60, InitOrders: 20, Seed: 11})
	topo := core.NewTopology(db)
	execs := topo.AddServer(4)
	topo.AddServer(4)
	for w := 0; w < cfg.Warehouses; w++ {
		topo.SetOwner(w, execs[w%len(execs)])
	}
	asm := NewAssembly(db, topo)
	cl := core.NewSimCluster(topo, sim.DefaultCosts(), asm.SetupAC)
	committed := new(int)
	cl.SetClient(func(_ sim.Time, ev *core.Event) {
		if info, ok := ev.Payload.(*oltp.DoneInfo); ok && info.Committed {
			*committed++
		}
	})
	return asm, cl, committed
}

func TestGrownACsInheritPolicy(t *testing.T) {
	asm, cl, committed := simAssembly(t)
	asm.SetPolicy(oltp.StreamingCC)
	grown := cl.GrowServer(4, asm.SetupAC)
	for i, id := range grown {
		cfg := asm.dispers[id].Config()
		if cfg.Policy != oltp.StreamingCC || cfg.Routes.Coord != asm.Lay.Coord {
			t.Fatalf("grown AC %d: policy %v coord %d, want %v coord %d",
				id, cfg.Policy, cfg.Routes.Coord, oltp.StreamingCC, asm.Lay.Coord)
		}
		// And it routes like one: a payment entering there is stamped,
		// executed on the record-class ACs and committed by the
		// dedicated coordinator.
		txn := tpcc.GetTxn()
		txn.Kind = tpcc.TxnPayment
		txn.Payment = tpcc.Payment{W: i % 4, D: 1, CW: i % 4, CD: 1, C: 1, Amount: 1}
		cl.Inject(id, &core.Event{Kind: core.EvTxn, Txn: core.TxnID(i + 1), Payload: txn}, cl.Sched.Now())
		cl.Run()
	}
	if *committed != len(grown) {
		t.Fatalf("committed %d of %d payments entering at grown ACs", *committed, len(grown))
	}
	if asm.Policy() != oltp.StreamingCC {
		t.Fatalf("Policy() = %v after SetPolicy(StreamingCC)", asm.Policy())
	}
}

func TestDispatchesEverywhereButCoord(t *testing.T) {
	asm, cl, _ := simAssembly(t)
	cl.GrowServer(4, asm.SetupAC)
	for _, id := range asm.Topo.AllACs() {
		if got, want := asm.Dispatches(id), id != asm.Lay.Coord; got != want {
			t.Errorf("Dispatches(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestEachParkedWithoutLog(t *testing.T) {
	asm, _, _ := simAssembly(t)
	asm.EachParked(func(id core.ACID) { t.Errorf("visited AC %d with no Log set", id) })
}
