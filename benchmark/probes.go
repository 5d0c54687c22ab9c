package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anydb"
	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/oltp"
	"anydb/internal/plan"
	"anydb/internal/sim"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/stream"
	"anydb/internal/tpcc"
	"anydb/internal/transport"
	"anydb/internal/wal"
)

// A probe times one layer's exported calls on its own, outside any
// workload: fixed iteration counts per block, the median block reported.
// cc, route, sim, dbx1000, metrics, tpcc and internal/bench are support
// or virtual-time only and get no probe.

const probeMinBlocks = 10

// probeEnv is what the probes share: a time slice each, a populated
// single-warehouse database, the tracer, and the metrics they emit.
type probeEnv struct {
	slice  time.Duration
	sc     scale
	seed   uint64
	tmp    string
	tr     *tracer
	parent int32
	db     *storage.Database
	out    map[string]metric
	diags  []diag
}

// blocks times fn — one block of n iterations — at least probeMinBlocks
// times and for the probe's slice, and returns the median ns per
// iteration. Each call is one span with its iteration count.
func (e *probeEnv) blocks(name string, n int, fn func()) float64 {
	_, end := e.tr.phase("probe:"+name, e.parent)
	var per []float64
	for start := time.Now(); len(per) < probeMinBlocks || time.Since(start) < e.slice; {
		t := time.Now()
		fn()
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	end(int64(len(per) * n))
	e.diags = append(e.diags, diag{"probe_blocks:" + name, float64(len(per)), "count", n})
	return median(per)
}

func (e *probeEnv) emit(name string, v float64, unit string) { e.out[name] = metric{v, unit} }

// stubCtx stands in for the runtime under the oltp and olap probes: it
// keeps what a handler sends so the probe can feed it back, and frees
// data batches the way the real sinks do.
type stubCtx struct {
	costs  sim.CostModel
	resent *core.Event
	rows   int64
}

func (c *stubCtx) Self() core.ACID                  { return 0 }
func (c *stubCtx) Now() sim.Time                    { return 0 }
func (c *stubCtx) Charge(sim.Time)                  {}
func (c *stubCtx) Costs() *sim.CostModel            { return &c.costs }
func (c *stubCtx) Topology() *core.Topology         { return nil }
func (c *stubCtx) Offloaded(core.ACID) bool         { return true }
func (c *stubCtx) Send(_ core.ACID, ev *core.Event) { c.resent = ev }
func (c *stubCtx) SendData(_ core.ACID, msg *core.DataMsg) {
	if msg.Batch != nil {
		c.rows += int64(msg.Batch.Len())
		storage.FreeBatch(msg.Batch)
	}
	core.FreeDataMsg(msg)
}

// runProbes runs every layer probe within total and returns the
// per-layer metrics.
func runProbes(total time.Duration, sc scale, seed uint64, tmp string, tr *tracer, parent int32) (map[string]metric, []diag, error) {
	probes := []func(*probeEnv) error{
		probeAnydb, probeStream, probeCore, probeOLTP, probeStorage,
		probeWAL, probePlan, probeOLAP, probeTransport,
	}
	const timedParts = 22 // time slices: one per blocks() call, two for the anydb pair
	db, _ := tpcc.NewDatabase(tpcc.Config{
		Warehouses: 1, Districts: sc.districts, Customers: sc.customers,
		Items: sc.items, InitOrders: sc.orders, LinesPerOrder: 1, Seed: int64(seed),
	})
	for _, tn := range db.Catalog.Tables() {
		db.Catalog.SetStats(tn, storage.Analyze(db.Partition(0).Table(tn)))
	}
	e := &probeEnv{
		slice: total / timedParts, sc: sc, seed: seed, tmp: tmp, tr: tr, parent: parent,
		db: db, out: map[string]metric{},
	}
	for _, p := range probes {
		if err := p(e); err != nil {
			return nil, nil, err
		}
	}
	return e.out, e.diags, nil
}

// probeAnydb drives the same pipelined payment loop through a pinned
// Session and through the session-less Cluster entry, in interleaved
// blocks on one small cluster, so the two figures share their noise.
func probeAnydb(e *probeEnv) error {
	c, err := anydb.Open(anydb.Config{
		Warehouses: 4, Districts: 4, CustomersPerDistrict: 100, InitialOrdersPerDist: 10, Items: 100,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	s := c.Session()
	defer s.Close()
	const n = 4000
	var futs [window]*anydb.Future
	var failed error
	loop := func(submit func(context.Context, anydb.Payment) (*anydb.Future, error)) func() {
		return func() {
			for i := 0; i < n+window; i++ {
				if f := futs[i%window]; f != nil {
					if _, err := f.Wait(ctx); err != nil {
						failed = err
					}
					futs[i%window] = nil
				}
				if i < n {
					f, err := submit(ctx, anydb.Payment{Warehouse: i % 4, District: 1 + i%4, Customer: 1 + i%100, Amount: 1})
					if err != nil {
						failed = err
						continue
					}
					futs[i%window] = f
				}
			}
		}
	}
	viaSession, sessionless := loop(s.SubmitPayment), loop(c.SubmitPayment)
	var a, b []float64
	_, end := e.tr.phase("probe:anydb_submit", e.parent)
	for start := time.Now(); len(a) < probeMinBlocks || time.Since(start) < 2*e.slice; {
		t := time.Now()
		viaSession()
		a = append(a, float64(time.Since(t).Nanoseconds())/n)
		t = time.Now()
		sessionless()
		b = append(b, float64(time.Since(t).Nanoseconds())/n)
	}
	end(int64(2 * n * len(a)))
	e.emit("anydb_submit_session_ns", median(a), "ns")
	e.emit("anydb_submit_sessionless_ns", median(b), "ns")
	return failed
}

// probeStream times the mailbox: a one-message ping-pong between two
// goroutines (a hop with its wake-up), and a 256-message batch pushed
// and drained on one goroutine (the amortized per-message cost).
func probeStream(e *probeEnv) error {
	ping, pong := stream.NewMailbox[int](), stream.NewMailbox[int]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]int, 1)
		for {
			if _, ok := ping.RecvBatch(buf); !ok {
				return
			}
			pong.SendBatch(buf)
		}
	}()
	one, buf := []int{1}, make([]int, 1)
	const rounds = 2000
	hop := e.blocks("stream_hop", 2*rounds, func() {
		for i := 0; i < rounds; i++ {
			ping.SendBatch(one)
			pong.RecvBatch(buf)
		}
	})
	ping.Close()
	<-done
	e.emit("stream_hop_ns", hop, "ns")

	box := stream.NewMailbox[int]()
	out, in := make([]int, 256), make([]int, 256)
	e.emit("stream_msg_ns", e.blocks("stream_msg", 256*200, func() {
		for i := 0; i < 200; i++ {
			box.SendBatch(out)
			for got := 0; got < len(out); {
				n, _ := box.RecvBatch(in)
				got += n
			}
		}
	}), "ns")
	return nil
}

// probeCore times the engine's message plane on the dispatcher's
// pattern: one router AC fans a transaction out to four workers, they
// acknowledge, the router completes toward the client — nine messages.
func probeCore(e *probeEnv) error {
	topo := core.NewTopology(storage.NewDatabase(1))
	workers := topo.AddServer(4)
	router := topo.AddServer(1)[0]
	pending := make(map[core.TxnID]int)
	send := func(ctx core.Context, dst core.ACID, kind core.EventKind, id core.TxnID) {
		ev := core.GetEvent()
		ev.Kind, ev.Txn = kind, id
		ctx.Send(dst, ev)
	}
	eng := core.NewEngine(topo, func(ac *core.AC) {
		if ac.ID != router {
			ac.Register(core.EvSegment, core.BehaviorFunc(func(ctx core.Context, _ *core.AC, ev *core.Event) {
				id := ev.Txn
				core.FreeEvent(ev)
				send(ctx, router, core.EvAck, id)
			}))
			return
		}
		ac.Register(core.EvTxn, core.BehaviorFunc(func(ctx core.Context, _ *core.AC, ev *core.Event) {
			id := ev.Txn
			core.FreeEvent(ev)
			for _, w := range workers {
				send(ctx, w, core.EvSegment, id)
			}
		}))
		ac.Register(core.EvAck, core.BehaviorFunc(func(ctx core.Context, _ *core.AC, ev *core.Event) {
			id := ev.Txn
			core.FreeEvent(ev)
			if got := pending[id] + 1; got < len(workers) {
				pending[id] = got
				return
			}
			delete(pending, id)
			send(ctx, core.ClientAC, core.EvTxnDone, id)
		}))
	})
	defer eng.Stop()
	// Sized to the in-flight window: Inject blocks on it, the client
	// callback releases a slot per completed transaction.
	sem := make(chan struct{}, 256)
	var wg sync.WaitGroup
	eng.SetClient(func(*core.Event) { <-sem; wg.Done() })
	const n = 5000
	next := core.TxnID(0)
	e.emit("core_fanout_ns", e.blocks("core_fanout", n, func() {
		wg.Add(n)
		for i := 0; i < n; i++ {
			sem <- struct{}{}
			next++
			ev := core.GetEvent()
			ev.Kind, ev.Txn = core.EvTxn, next
			eng.Inject(router, ev)
		}
		wg.Wait()
	}), "ns")

	acs := topo.AllACs()
	var sink int
	e.emit("core_topo_ns", e.blocks("core_topo", 1<<20, func() {
		for i := 0; i < 1<<20; i++ {
			sink += topo.ServerOf(acs[i%len(acs)])
		}
	}), "ns")
	if sink < 0 {
		return fmt.Errorf("core_topo: impossible server sum %d", sink)
	}
	return nil
}

// probeOLTP runs one payment and one new-order program — compile, build
// the executor, run each op, commit — on the populated database, single
// thread, no runtime around it.
func probeOLTP(e *probeEnv) error {
	ctx := &stubCtx{costs: sim.DefaultCosts()}
	gen := newOpGen(e.seed, 0x71, e.sc, 0) // for its rng and customer ids; every home is warehouse 0
	var ops []oltp.Op
	var undo storage.UndoLog
	var failed error
	run := func(t *tpcc.Txn) {
		ops = oltp.ProgramAppend(ops[:0], t)
		ex := oltp.NewExec(ctx, e.db, &undo)
		for _, op := range ops {
			if err := op.Run(ex); err != nil {
				failed = err
			}
		}
		undo.Commit()
	}
	const n = 2000
	pays, orders := make([]tpcc.Txn, n), make([]tpcc.Txn, n)
	fill := func() {
		for i := range pays {
			pays[i] = tpcc.Txn{Kind: tpcc.TxnPayment, Payment: tpcc.Payment{
				W: 0, D: 1 + gen.rng.IntN(e.sc.districts), CW: 0, CD: 1 + gen.rng.IntN(e.sc.districts),
				C: gen.customerID(), Amount: float64(1 + gen.rng.IntN(5000)),
			}}
			lines := make([]tpcc.NewOrderLine, 10)
			for l := range lines {
				lines[l] = tpcc.NewOrderLine{Item: gen.rng.IntN(e.sc.items), Qty: 1 + gen.rng.IntN(10)}
			}
			orders[i] = tpcc.Txn{Kind: tpcc.TxnNewOrder, NewOrder: tpcc.NewOrder{
				W: 0, D: 1 + gen.rng.IntN(e.sc.districts), C: gen.customerID(), Lines: lines,
			}}
		}
	}
	fill()
	e.emit("oltp_payment_ns", e.blocks("oltp_payment", n, func() {
		for i := range pays {
			run(&pays[i])
		}
	}), "ns")
	e.emit("oltp_neworder_ns", e.blocks("oltp_neworder", n, func() {
		for i := range orders {
			run(&orders[i])
		}
	}), "ns")
	return failed
}

// probeStorage times the row heap (point read, keyed insert) and the
// columnar mirror (rebuild of a chunk a write dirtied, and the hit on a
// clean one).
func probeStorage(e *probeEnv) error {
	p := e.db.Partition(0)
	cust := p.TableByID(tpcc.TCustomerID)
	r := rand.New(rand.NewPCG(e.seed, 0x72))
	const n = 1 << 16
	keys := make([]storage.Key, n)
	for i := range keys {
		keys[i] = tpcc.CustomerKey(0, 1+r.IntN(e.sc.districts), 1+r.IntN(e.sc.customers))
	}
	missed := 0
	e.emit("storage_get_ns", e.blocks("storage_get", n, func() {
		for _, k := range keys {
			if _, ok := cust.Get(k); !ok {
				missed++
			}
		}
	}), "ns")
	if missed > 0 {
		return fmt.Errorf("storage_get: %d of the populated customer keys missing", missed)
	}

	no := p.TableByID(tpcc.TNewOrderID)
	next := int64(1 << 30) // order ids far above any the populate or the oltp probe used
	var failed error
	e.emit("storage_insert_ns", e.blocks("storage_insert", 4096, func() {
		for i := 0; i < 4096; i++ {
			next++
			row := p.Slab().NewRow(3)
			row[0], row[1], row[2] = storage.Int(0), storage.Int(1), storage.Int(next)
			if _, err := no.Insert(tpcc.NewOrderKey(0, 1, next), row); err != nil {
				failed = err
			}
		}
	}), "ns")

	chunks := cust.NumColChunks()
	balance := cust.Schema.MustCol("c_balance")
	i := 0
	e.emit("storage_chunk_rebuild_us", e.blocks("storage_chunk_rebuild", chunks, func() {
		for ci := 0; ci < chunks; ci++ {
			i++
			cust.UpdateAt(int32(ci<<storage.ColChunkShift), balance, storage.Float(float64(i)))
			if cust.ColChunk(ci).Len() == 0 {
				failed = fmt.Errorf("storage: chunk %d rebuilt empty", ci)
			}
		}
	})/1e3, "us")
	e.emit("storage_chunk_hit_ns", e.blocks("storage_chunk_hit", chunks*4096, func() {
		for k := 0; k < 4096; k++ {
			for ci := 0; ci < chunks; ci++ {
				if cust.ColChunk(ci) == nil {
					failed = fmt.Errorf("storage: clean chunk %d missing", ci)
				}
			}
		}
	}), "ns")
	return failed
}

// probeWAL times the command log on a real file: G appends and one
// flush (write + fsync) for G in {1, 32, 256}, then a replay of
// everything written.
func probeWAL(e *probeEnv) error {
	dev, err := wal.OpenFile(filepath.Join(e.tmp, "probe-wal.log"))
	if err != nil {
		return err
	}
	defer dev.Close()
	log := wal.NewLogger(dev, 0)
	txn := tpcc.Txn{Kind: tpcc.TxnPayment, Payment: tpcc.Payment{W: 0, D: 1, CW: 0, CD: 1, C: 1, Amount: 1}}
	var failed error
	var written int64
	for _, g := range []int{1, 32, 256} {
		var appendNs, flushNs []float64
		var flushCPU time.Duration
		e.blocks(fmt.Sprintf("wal_group_%d", g), g, func() {
			t0 := time.Now()
			for i := 0; i < g; i++ {
				txn.Payment.C = 1 + i%e.sc.customers
				if _, err := log.Append(&txn); err != nil {
					failed = err
				}
			}
			t1, cpu1 := time.Now(), cpuTime()
			if err := log.Flush(); err != nil {
				failed = err
			}
			flushCPU += cpuTime() - cpu1
			appendNs = append(appendNs, float64(t1.Sub(t0).Nanoseconds())/float64(g))
			flushNs = append(flushNs, float64(time.Since(t1).Nanoseconds()))
			written += int64(g)
		})
		e.diags = append(e.diags, diag{fmt.Sprintf("wal_flush_g%d_us", g), median(flushNs) / 1e3, "us", len(flushNs)})
		switch g {
		case 32:
			// The flush is mostly a wait for the device: its wall time
			// bounds latency, its CPU time is what a core pays.
			e.emit("wal_flush_us", median(flushNs)/1e3, "us")
			e.emit("wal_flush_cpu_us", float64(flushCPU.Microseconds())/float64(len(flushNs)), "us")
		case 256:
			e.emit("wal_append_ns", median(appendNs), "ns")
		}
	}
	if failed != nil {
		return failed
	}
	size, err := dev.Size()
	if err != nil {
		return err
	}
	e.emit("wal_bytes_per_txn", float64(size)/float64(written), "B")
	_, end := e.tr.phase("probe:wal_replay", e.parent)
	t := time.Now()
	applied, _, _, err := wal.Replay(dev, e.db)
	if err != nil {
		return err
	}
	if int64(applied) != written {
		return fmt.Errorf("wal: replayed %d of %d records", applied, written)
	}
	end(int64(applied))
	e.emit("wal_replay_ns_per_txn", float64(time.Since(t).Nanoseconds())/float64(applied), "ns")
	return os.Remove(filepath.Join(e.tmp, "probe-wal.log"))
}

// probePlan times parse + compile of the four query shapes.
func probePlan(e *probeEnv) error {
	one := e.sc
	one.warehouses = 1 // the probe database has a single partition
	shapes := queryShapes(e.seed, one)
	var failed error
	var sum float64
	for _, sh := range shapes {
		sum += e.blocks("plan_compile_"+sh.name, 200, func() {
			for i := 0; i < 200; i++ {
				q, err := sql.Parse(sh.sql)
				if err == nil {
					_, err = plan.CompileSQL(e.db.Catalog, q, core.QueryID(i+1), []int{0}, []core.ACID{1}, core.ClientAC)
				}
				if err != nil {
					failed = err
				}
			}
		})
	}
	e.emit("plan_compile_us", sum/float64(len(shapes))/1e3, "us")
	return failed
}

// probeOLAP times one shared-scan pass over the customer partition —
// the grouped query's pushdown — with one registration and with eight
// riding the same cursor. The share ratio is the eight-registration
// pass over eight solo passes: 1 means sharing saves nothing, 1/8 that
// the extra registrations are free.
func probeOLAP(e *probeEnv) error {
	w := &olap.Worker{DB: e.db}
	ctx := &stubCtx{costs: sim.DefaultCosts()}
	rows := e.db.Partition(0).TableByID(tpcc.TCustomerID).Rows()
	pass := func(regs int) {
		var drive *core.Event
		for q := 0; q < regs; q++ {
			ev := core.GetEvent()
			ev.Kind = core.EvInstallOp
			ev.Payload = &olap.SharedScanSpec{
				Query: core.QueryID(q + 1), Table: tpcc.TCustomerID, Part: 0,
				GroupBy: []string{"c_state"}, DictGroups: true,
				Aggs: []olap.AggExpr{{Fn: olap.AggCount}, {Fn: olap.AggSum, Col: "c_balance"}},
				Out:  core.StreamID(q + 1), To: 1, Producers: 1,
			}
			ctx.resent = nil
			w.OnEvent(ctx, nil, ev)
			if ctx.resent != nil {
				drive = ctx.resent // the first registration's continuation drives the cursor
			}
		}
		for drive != nil {
			ctx.resent = nil
			w.OnEvent(ctx, nil, drive)
			drive = ctx.resent
		}
	}
	const passes = 4
	solo := e.blocks("olap_scan_1", passes*rows, func() {
		for i := 0; i < passes; i++ {
			pass(1)
		}
	})
	shared := e.blocks("olap_scan_8", passes*rows, func() {
		for i := 0; i < passes; i++ {
			pass(8)
		}
	})
	if ctx.rows == 0 {
		return fmt.Errorf("olap: scan passes emitted no partial rows")
	}
	e.emit("olap_scan_ns_per_row", solo, "ns")
	e.emit("olap_share_ratio", shared/(8*solo), "ratio")
	return nil
}

// countingConn counts the bytes a Peer writes.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// probeTransport times the wire: frames of 64 payment-segment events
// written by one Peer and decoded by another over loopback TCP inside
// this process. No end-to-end workload crosses processes yet.
func probeTransport(e *probeEnv) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	const perFrame, frames = 64, 50
	got := make(chan struct{}, 1)
	var received atomic.Int64
	srvErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		srvErr <- transport.NewPeer(conn, nil).Serve(func(_ core.ACID, m any) {
			transport.FreeLocal(m)
			if received.Add(1)%(perFrame*frames) == 0 {
				got <- struct{}{}
			}
		}, func(any) error { return nil })
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	conn := &countingConn{Conn: raw}
	peer := transport.NewPeer(conn, nil)
	msgs := make([]any, perFrame)
	var failed error
	perEvent := e.blocks("transport_event", perFrame*frames, func() {
		for f := 0; f < frames; f++ {
			for i := range msgs {
				seg := oltp.GetSegment()
				seg.Ops = append(seg.Ops[:0],
					&oltp.UpdateWarehouseYTD{W: 1, Amount: 12},
					&oltp.UpdateDistrictYTD{W: 1, D: 2, Amount: 12},
					&oltp.PayCustomer{W: 1, D: 2, C: 3, Amount: 12},
					&oltp.InsertHistory{W: 1, D: 2, CW: 1, CD: 2, CRef: 3, Amount: 12})
				seg.Coord, seg.Total, seg.Client = 5, 1, transport.Token(uint64(i))
				ev := core.GetEvent()
				ev.Kind, ev.Txn, ev.Payload = core.EvSegment, core.TxnID(i+1), seg
				msgs[i] = ev
			}
			if err := peer.WriteMessages(1, msgs); err != nil {
				failed = err
				return
			}
		}
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			failed = fmt.Errorf("transport: receiver saw %d events, block never completed", received.Load())
		}
	})
	peer.Close()
	if err := <-srvErr; err != nil && failed == nil {
		failed = err
	}
	e.emit("transport_event_ns", perEvent, "ns")
	e.emit("transport_bytes_per_event", float64(conn.n.Load())/float64(received.Load()), "B")
	return failed
}
