package core

import (
	"sync"
	"testing"
	"time"

	"anydb/internal/sim"
	"anydb/internal/storage"
)

func testDB(parts int) *storage.Database {
	return storage.NewDatabase(parts,
		storage.NewSchema("t", storage.Column{Name: "id", Kind: storage.KInt}))
}

func TestTopologyLayout(t *testing.T) {
	topo := NewTopology(testDB(4))
	s0 := topo.AddServer(4)
	s1 := topo.AddServer(4)
	if topo.NumServers() != 2 || topo.NumACs() != 8 {
		t.Fatalf("servers=%d acs=%d", topo.NumServers(), topo.NumACs())
	}
	if !topo.SameServer(s0[0], s0[3]) || topo.SameServer(s0[0], s1[0]) {
		t.Fatal("locality broken")
	}
	topo.SetOwner(0, s0[0])
	topo.SetOwner(1, s0[1])
	topo.SetOwner(2, s0[0])
	if topo.Owner(1) != s0[1] {
		t.Fatal("owner lookup broken")
	}
	owned := topo.OwnedPartitions(s0[0])
	if len(owned) != 2 || owned[0] != 0 || owned[1] != 2 {
		t.Fatalf("OwnedPartitions = %v", owned)
	}
	if len(topo.ACs(1)) != 4 {
		t.Fatal("ACs(server) broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Owner of unowned partition did not panic")
		}
	}()
	topo.Owner(3)
}

// echoBehavior records handled events and optionally forwards.
type echoBehavior struct {
	handled []*Event
	forward ACID
}

func (b *echoBehavior) OnEvent(ctx Context, _ *AC, ev *Event) {
	b.handled = append(b.handled, ev)
	ctx.Charge(100)
	if b.forward != NoAC && ev.Kind == EvSegment {
		ctx.Send(b.forward, &Event{Kind: EvAck, Txn: ev.Txn})
	}
}

func TestSimClusterEventFlow(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(2)
	behaviors := make(map[ACID]*echoBehavior)
	cl := NewSimCluster(topo, sim.DefaultCosts(), func(ac *AC) {
		b := &echoBehavior{forward: NoAC}
		behaviors[ac.ID] = b
		ac.Register(EvSegment, b)
		ac.Register(EvAck, b)
	})
	behaviors[ids[0]].forward = ids[1]

	cl.Inject(ids[0], &Event{Kind: EvSegment, Txn: 1}, 0)
	cl.Run()

	if len(behaviors[ids[0]].handled) != 1 {
		t.Fatal("segment not handled at ac0")
	}
	if len(behaviors[ids[1]].handled) != 1 || behaviors[ids[1]].handled[0].Kind != EvAck {
		t.Fatal("ack not delivered to ac1")
	}
	// Virtual time advanced: dispatch + charge + create + local hop +
	// dispatch + charge.
	if cl.Sched.Now() == 0 {
		t.Fatal("virtual time did not advance")
	}
	if cl.Actor(ids[0]).BusyTime == 0 || cl.Actor(ids[1]).BusyTime == 0 {
		t.Fatal("busy time not accounted")
	}
}

func TestSimClusterLocalVsRemoteLatency(t *testing.T) {
	topo := NewTopology(testDB(1))
	s0 := topo.AddServer(2)
	s1 := topo.AddServer(1)
	var localAt, remoteAt sim.Time
	cl := NewSimCluster(topo, sim.DefaultCosts(), func(ac *AC) {
		ac.Register(EvSegment, BehaviorFunc(func(ctx Context, _ *AC, ev *Event) {
			ctx.Send(s0[1], &Event{Kind: EvAck})
			ctx.Send(s1[0], &Event{Kind: EvAck})
		}))
		ac.Register(EvAck, BehaviorFunc(func(ctx Context, _ *AC, _ *Event) {
			if ctx.Self() == s0[1] {
				localAt = ctx.Now()
			} else {
				remoteAt = ctx.Now()
			}
		}))
	})
	cl.Inject(s0[0], &Event{Kind: EvSegment}, 0)
	cl.Run()
	if localAt == 0 || remoteAt == 0 {
		t.Fatal("acks not delivered")
	}
	if remoteAt <= localAt {
		t.Fatalf("remote hop (%v) should arrive after local hop (%v)", remoteAt, localAt)
	}
}

func TestACParkUntilDataArrives(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(1)
	var order []string
	cl := NewSimCluster(topo, sim.DefaultCosts(), func(ac *AC) {
		ac.Register(EvSegment, BehaviorFunc(func(ctx Context, ac *AC, ev *Event) {
			order = append(order, "need:"+ev.Payload.(string))
		}))
		ac.Register(EvAck, BehaviorFunc(func(ctx Context, _ *AC, _ *Event) {
			order = append(order, "free")
		}))
	})
	// Event needing stream 7 arrives before the data: it must park.
	cl.Inject(ids[0], &Event{Kind: EvSegment, Need: []StreamID{7}, NeedClosed: true, Payload: "a"}, 0)
	// An independent event arrives later and must NOT be blocked.
	cl.Inject(ids[0], &Event{Kind: EvAck}, 10)
	// Data for stream 7 arrives last.
	b := storage.NewBatch(storage.NewSchema("s", storage.Column{Name: "x", Kind: storage.KInt}))
	b.AppendValues(storage.Int(1))
	cl.InjectData(ids[0], &DataMsg{Stream: 7, Batch: b, Last: true}, 1000)
	cl.Run()

	if len(order) != 2 || order[0] != "free" || order[1] != "need:a" {
		t.Fatalf("order = %v, want [free need:a] (non-blocking execution)", order)
	}
	if cl.AC(ids[0]).ParkedNow != 0 {
		t.Fatal("parked count not drained")
	}
}

func TestACNeedOpenVsClosed(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(1)
	fired := map[string]sim.Time{}
	cl := NewSimCluster(topo, sim.DefaultCosts(), func(ac *AC) {
		ac.Register(EvSegment, BehaviorFunc(func(ctx Context, _ *AC, ev *Event) {
			fired[ev.Payload.(string)] = ctx.Now()
		}))
	})
	cl.Inject(ids[0], &Event{Kind: EvSegment, Need: []StreamID{1}, Payload: "open"}, 0)
	cl.Inject(ids[0], &Event{Kind: EvSegment, Need: []StreamID{1}, NeedClosed: true, Payload: "closed"}, 0)
	sch := storage.NewSchema("s", storage.Column{Name: "x", Kind: storage.KInt})
	b1 := storage.NewBatch(sch)
	b1.AppendValues(storage.Int(1))
	cl.InjectData(ids[0], &DataMsg{Stream: 1, Batch: b1}, 100)
	b2 := storage.NewBatch(sch)
	b2.AppendValues(storage.Int(2))
	cl.InjectData(ids[0], &DataMsg{Stream: 1, Batch: b2, Last: true}, 500)
	cl.Run()
	if fired["open"] == 0 || fired["closed"] == 0 {
		t.Fatalf("events not fired: %v", fired)
	}
	if fired["open"] >= fired["closed"] {
		t.Fatal("open-need event should fire on first batch, closed-need on Last")
	}
}

// dataCollector implements DataSink.
type dataCollector struct {
	rows   int
	closed bool
}

func (d *dataCollector) OnData(ctx Context, _ *AC, msg *DataMsg) {
	if msg.Batch != nil {
		d.rows += msg.Batch.Len()
	}
	if msg.Last {
		d.closed = true
	}
}

func TestACSubscribeReplaysBeamedData(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(1)
	sink := &dataCollector{}
	var sub bool
	cl := NewSimCluster(topo, sim.DefaultCosts(), func(ac *AC) {
		ac.Register(EvInstallOp, BehaviorFunc(func(ctx Context, ac *AC, ev *Event) {
			ac.Subscribe(ctx, 3, sink)
			sub = true
		}))
	})
	sch := storage.NewSchema("s", storage.Column{Name: "x", Kind: storage.KInt})
	// Data beamed BEFORE the operator event arrives.
	for i := 0; i < 3; i++ {
		b := storage.NewBatch(sch)
		b.AppendValues(storage.Int(int64(i)))
		cl.InjectData(ids[0], &DataMsg{Stream: 3, Batch: b, Last: i == 2}, sim.Time(i))
	}
	cl.Inject(ids[0], &Event{Kind: EvInstallOp}, 1000)
	cl.Run()
	if !sub || sink.rows != 3 || !sink.closed {
		t.Fatalf("subscribe replay failed: rows=%d closed=%v", sink.rows, sink.closed)
	}
}

func TestSequencerStampsAndForwards(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(3) // ac0 = sequencer, ac1/ac2 = executors
	var seen [3][]uint64
	cl := NewSimCluster(topo, sim.DefaultCosts(), func(ac *AC) {
		ac.Register(EvSeqStamp, &Sequencer{})
		ac.Register(EvSegment, BehaviorFunc(func(ctx Context, _ *AC, ev *Event) {
			seen[ctx.Self()] = append(seen[ctx.Self()], ev.Seq)
		}))
	})
	for txn := 0; txn < 10; txn++ {
		batch := &SeqBatch{Events: []Outbound{
			{Dst: ids[1], Ev: &Event{Kind: EvSegment, Txn: TxnID(txn)}},
			{Dst: ids[2], Ev: &Event{Kind: EvSegment, Txn: TxnID(txn)}},
		}}
		cl.Inject(ids[0], &Event{Kind: EvSeqStamp, Payload: batch}, sim.Time(txn))
	}
	cl.Run()
	for _, acIdx := range []int{1, 2} {
		if len(seen[acIdx]) != 10 {
			t.Fatalf("executor %d saw %d events", acIdx, len(seen[acIdx]))
		}
		for i := 1; i < len(seen[acIdx]); i++ {
			if seen[acIdx][i] <= seen[acIdx][i-1] {
				t.Fatalf("executor %d: stamps out of order: %v", acIdx, seen[acIdx])
			}
		}
	}
}

func TestSimClusterGrowServer(t *testing.T) {
	topo := NewTopology(testDB(1))
	topo.AddServer(1)
	var got int
	cl := NewSimCluster(topo, sim.DefaultCosts(), func(ac *AC) {
		ac.Register(EvSegment, BehaviorFunc(func(ctx Context, _ *AC, _ *Event) { got++ }))
	})
	newIDs := cl.GrowServer(2, func(ac *AC) {
		ac.Register(EvSegment, BehaviorFunc(func(ctx Context, _ *AC, _ *Event) { got += 100 }))
	})
	if topo.NumServers() != 2 || len(newIDs) != 2 {
		t.Fatal("grow failed")
	}
	cl.Inject(newIDs[1], &Event{Kind: EvSegment}, 0)
	cl.Run()
	if got != 100 {
		t.Fatalf("event not handled by grown AC: got=%d", got)
	}
}

func TestSimClusterClientCallback(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(1)
	var doneTxn TxnID
	var doneAt sim.Time
	cl := NewSimCluster(topo, sim.DefaultCosts(), func(ac *AC) {
		ac.Register(EvSegment, BehaviorFunc(func(ctx Context, _ *AC, ev *Event) {
			ctx.Charge(500)
			ctx.Send(ClientAC, &Event{Kind: EvTxnDone, Txn: ev.Txn})
		}))
	})
	cl.SetClient(func(at sim.Time, ev *Event) { doneTxn, doneAt = ev.Txn, at })
	cl.Inject(ids[0], &Event{Kind: EvSegment, Txn: 77}, 0)
	cl.Run()
	if doneTxn != 77 || doneAt == 0 {
		t.Fatalf("client callback: txn=%d at=%v", doneTxn, doneAt)
	}
}

func TestEngineRealRuntime(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(4)
	var mu sync.Mutex
	handled := 0
	done := make(chan struct{})
	eng := NewEngine(topo, func(ac *AC) {
		ac.Register(EvSegment, BehaviorFunc(func(ctx Context, _ *AC, ev *Event) {
			mu.Lock()
			handled++
			mu.Unlock()
			ctx.Send(ClientAC, &Event{Kind: EvTxnDone, Txn: ev.Txn})
		}))
	})
	var doneCount int
	eng.SetClient(func(ev *Event) {
		mu.Lock()
		doneCount++
		if doneCount == 40 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 40; i++ {
		eng.Inject(ids[i%4], &Event{Kind: EvSegment, Txn: TxnID(i)})
	}
	<-done
	eng.Stop()
	if handled != 40 {
		t.Fatalf("handled = %d, want 40", handled)
	}
	eng.Stop() // idempotent
}

// TestRealChargeOnlyAccounts charges a handler on the goroutine runtime
// ten seconds of modelled work, as a replay of a large stored pass does
// in one charge: Charge returns at once, since the real work already took
// its own time. Occupy, the compile window, holds the AC for its length.
func TestRealChargeOnlyAccounts(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(1)
	took := make(chan time.Duration, 1)
	eng := NewEngine(topo, func(ac *AC) {
		ac.Register(EvControl, BehaviorFunc(func(ctx Context, _ *AC, ev *Event) {
			start := time.Now()
			if ev.Txn == 0 {
				ctx.Charge(10 * sim.Second)
			} else {
				Occupy(ctx, 20*sim.Millisecond)
			}
			took <- time.Since(start)
		}))
	})
	defer eng.Stop()
	eng.Inject(ids[0], &Event{Kind: EvControl})
	if d := <-took; d > time.Second {
		t.Fatalf("a 10 s Charge held the AC for %v", d)
	}
	eng.Inject(ids[0], &Event{Kind: EvControl, Txn: 1})
	if d := <-took; d < 20*time.Millisecond {
		t.Fatalf("a 20 ms Occupy held the AC for %v", d)
	}
}

func TestEngineDataFlow(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(2)
	done := make(chan int, 1)
	sink := &dataCollector{}
	eng := NewEngine(topo, func(ac *AC) {
		ac.Register(EvInstallOp, BehaviorFunc(func(ctx Context, ac *AC, _ *Event) {
			ac.Subscribe(ctx, 9, sink)
		}))
		ac.Register(EvControl, BehaviorFunc(func(ctx Context, ac *AC, _ *Event) {
			done <- sink.rows
		}))
	})
	sch := storage.NewSchema("s", storage.Column{Name: "x", Kind: storage.KInt})
	b := storage.NewBatch(sch)
	b.AppendValues(storage.Int(5))
	eng.InjectData(ids[1], &DataMsg{Stream: 9, Batch: b, Last: true})
	eng.Inject(ids[1], &Event{Kind: EvInstallOp})
	eng.Inject(ids[1], &Event{Kind: EvControl})
	if rows := <-done; rows != 1 {
		t.Fatalf("rows = %d, want 1", rows)
	}
	eng.Stop()
}

func TestEngineKillACDropsDelivery(t *testing.T) {
	topo := NewTopology(testDB(1))
	ids := topo.AddServer(2)
	var mu sync.Mutex
	var count int
	eng := NewEngine(topo, func(ac *AC) {
		ac.Register(EvSegment, BehaviorFunc(func(ctx Context, _ *AC, _ *Event) {
			mu.Lock()
			count++
			mu.Unlock()
		}))
	})
	eng.KillAC(ids[0])
	eng.Inject(ids[0], &Event{Kind: EvSegment})
	eng.Stop()
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Fatal("killed AC still handled events")
	}
}

func TestEventKindString(t *testing.T) {
	if EvTxn.String() != "Txn" || EvQueryDone.String() != "QueryDone" {
		t.Fatal("kind names broken")
	}
	if EventKind(200).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestWireSizes(t *testing.T) {
	ev := &Event{Kind: EvSegment, Size: 100}
	if ev.WireSize() != 164 {
		t.Fatalf("event wire size = %d", ev.WireSize())
	}
	if (&Event{}).WireSize() != 64 {
		t.Fatal("default event size")
	}
	if (&DataMsg{Last: true}).WireSize() != 32 {
		t.Fatal("eos size")
	}
}

func TestDuplicateBehaviorPanics(t *testing.T) {
	ac := NewAC(1)
	ac.Register(EvTxn, BehaviorFunc(func(Context, *AC, *Event) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	ac.Register(EvTxn, BehaviorFunc(func(Context, *AC, *Event) {}))
}
