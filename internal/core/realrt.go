package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anydb/internal/sim"
	"anydb/internal/stream"
)

// drainChunk sizes the reusable buffer one AC wakeup drains into — the
// amortization width of the consumer side (one RecvBatch per up to this
// many messages). Outbox flushing is per handled message and does not
// depend on this bound.
const drainChunk = 256

// Engine is the goroutine runtime: every AC runs as one goroutine
// draining a multi-producer mailbox — the paper's non-blocking queues
// realized with Go's native concurrency. The public anydb API and the
// examples run on this engine; the figures use SimCluster (same AC logic,
// virtual time).
//
// The send hot path is lock-free: routing goes through an immutable,
// atomically published table (ACID-indexed slice of mailboxes) rebuilt
// under mu on spawn/GrowServer. The mutex is only ever taken on the slow
// path — the brief window where elastic growth has advertised an AC in
// the topology before its goroutine spawned.
type Engine struct {
	Topo  *Topology
	Costs sim.CostModel

	// routes is the published routing table. The slice is immutable
	// once stored; rebuilds copy. Entries are nil for ACs whose mailbox
	// does not exist yet (resolved by boxSlow).
	routes atomic.Pointer[[]*stream.Mailbox[any]]

	// growMu serializes GrowServer against Stop, so a grow either
	// completes fully (its ACs' boxes are then closed by Stop) or
	// never touches the topology. Always acquired before mu.
	growMu sync.Mutex

	mu     sync.Mutex
	acs    map[ACID]*AC
	boxes  map[ACID]*stream.Mailbox[any] // authoritative; routes is its published snapshot
	wg     sync.WaitGroup
	start  time.Time
	client func(ev *Event)

	nextStream atomic.Uint64

	stopped bool
}

// NewEngine starts one goroutine per AC in topo. setup registers
// behaviors per AC before its goroutine starts.
func NewEngine(topo *Topology, setup func(ac *AC)) *Engine {
	return NewEngineAt(topo, setup, nil)
}

// NewEngineAt starts goroutines only for the ACs where local reports
// true (nil means all) — the multi-process entry point: a node runs its
// own server's ACs and registers transport outboxes (RegisterRemote)
// for every AC living in another process, so the send hot path stays
// one routing-table load regardless of where the destination runs.
func NewEngineAt(topo *Topology, setup func(ac *AC), local func(id ACID) bool) *Engine {
	e := &Engine{
		Topo:  topo,
		Costs: sim.DefaultCosts(),
		acs:   make(map[ACID]*AC),
		boxes: make(map[ACID]*stream.Mailbox[any]),
		start: time.Now(),
	}
	for _, id := range topo.AllACs() {
		if local != nil && !local(id) {
			continue
		}
		e.spawn(id, setup)
	}
	return e
}

// spawn creates and runs one AC. It refuses (returning false) once the
// engine stopped, so elastic growth racing Stop cannot leak goroutines.
func (e *Engine) spawn(id ACID, setup func(ac *AC)) bool {
	ac := NewAC(id)
	if setup != nil {
		setup(ac)
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return false
	}
	// boxSlow may have pre-created the mailbox for a send that raced
	// elastic growth; adopt it so nothing queued there is lost.
	box, ok := e.boxes[id]
	if !ok {
		box = stream.NewMailbox[any]()
		e.boxes[id] = box
		e.publishRoutesLocked()
	}
	e.acs[id] = ac
	e.wg.Add(1)
	e.mu.Unlock()

	go func() {
		defer e.wg.Done()
		ctx := &realCtx{e: e, self: id}
		buf := make([]any, drainChunk)
		for {
			n, ok := box.RecvBatch(buf)
			if !ok {
				return
			}
			for i := 0; i < n; i++ {
				switch v := buf[i].(type) {
				case *Event:
					ac.HandleEvent(ctx, v)
				case *DataMsg:
					ac.HandleData(ctx, v)
				default:
					panic(fmt.Sprintf("core: unknown message %T", buf[i]))
				}
				buf[i] = nil
				// Flush at handler return: everything one invocation
				// sent to one destination leaves as one push and one
				// wake, and the messages are visible before the next
				// handler on this AC runs.
				ctx.flush()
			}
			// Batch boundary: the natural group-commit point. The hook
			// sees every message of the drained batch already handled.
			if hook := ac.OnBatchEnd; hook != nil {
				hook(ctx)
				ctx.flush()
			}
		}
	}()
	return true
}

// publishRoutesLocked snapshots boxes into a fresh ACID-indexed table
// and publishes it. mu must be held.
func (e *Engine) publishRoutesLocked() {
	max := ACID(-1)
	for id := range e.boxes {
		if id > max {
			max = id
		}
	}
	table := make([]*stream.Mailbox[any], max+1)
	for id, b := range e.boxes {
		table[id] = b
	}
	e.routes.Store(&table)
}

// GrowServer adds a server and spawns its ACs at runtime (elasticity).
// It returns nil once the engine stopped — without having advertised
// the server in the topology, so nothing can route toward ACs that
// will never run.
func (e *Engine) GrowServer(cores int, setup func(ac *AC)) []ACID {
	e.growMu.Lock()
	defer e.growMu.Unlock()
	e.mu.Lock()
	stopped := e.stopped
	e.mu.Unlock()
	if stopped {
		return nil
	}
	ids := e.Topo.AddServer(cores)
	for _, id := range ids {
		// growMu excludes Stop for the whole call, so spawn cannot
		// refuse here: once the server is advertised, all its ACs run.
		e.spawn(id, setup)
	}
	return ids
}

// SetClient registers the completion callback; it runs on AC goroutines
// and must be cheap and thread-safe. Events delivered to it are recycled
// by the engine when the callback returns — implementations must not
// retain the *Event (payloads may be retained).
func (e *Engine) SetClient(fn func(ev *Event)) { e.client = fn }

// AC returns the component with the given id.
func (e *Engine) AC(id ACID) *AC {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.acs[id]
}

// NewStream allocates an engine-unique stream id. Lock-free: it sits on
// the query-submission path.
func (e *Engine) NewStream() StreamID {
	return StreamID(e.nextStream.Add(1))
}

// Inject delivers an event from outside (client requests). It reports
// false when dst's mailbox is closed: the event was not delivered and
// still belongs to the caller.
func (e *Engine) Inject(dst ACID, ev *Event) bool {
	return e.box(dst).Send(ev)
}

// InjectData delivers a data message from outside.
func (e *Engine) InjectData(dst ACID, msg *DataMsg) {
	e.box(dst).Send(msg)
}

// box resolves a destination mailbox. Steady state is one atomic load
// and an indexed read — no locks on the per-message send path.
func (e *Engine) box(id ACID) *stream.Mailbox[any] {
	if t := e.routes.Load(); t != nil {
		if table := *t; int(id) < len(table) && id >= 0 {
			if b := table[id]; b != nil {
				return b
			}
		}
	}
	return e.boxSlow(id)
}

// boxSlow handles the elastic-growth race window: a server is published
// in the topology before its AC goroutines spawn, and a concurrent
// sender can target such an AC before spawn published its mailbox.
// Create the mailbox now — deliveries buffer, and spawn adopts the box.
func (e *Engine) boxSlow(id ACID) *stream.Mailbox[any] {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, ok := e.boxes[id]
	if !ok {
		if id < 0 || int(id) >= e.Topo.NumACs() {
			panic(fmt.Sprintf("core: unknown AC %d", id))
		}
		b = stream.NewMailbox[any]()
		if e.stopped {
			// Nothing will ever drain this box; reject deliveries the
			// same way sends to any stopped AC are rejected.
			b.Close()
		}
		e.boxes[id] = b
		e.publishRoutesLocked()
	}
	return b
}

// RegisterRemote installs an outbox mailbox for an AC that runs in
// another process: senders route to it exactly like to a local AC (same
// published table, same SendBatch semantics), and the transport's
// router drains it, serializing batches onto the peer connection. If a
// racing send already pre-created the box (boxSlow), it is adopted so
// nothing queued is lost. Stop closes the box like any other, which is
// what terminates the router's drain loop.
func (e *Engine) RegisterRemote(id ACID) *stream.Mailbox[any] {
	e.mu.Lock()
	defer e.mu.Unlock()
	box, ok := e.boxes[id]
	if !ok {
		box = stream.NewMailbox[any]()
		if e.stopped {
			box.Close()
		}
		e.boxes[id] = box
		e.publishRoutesLocked()
	}
	return box
}

// InjectClient delivers a completion event that arrived over the wire
// to the client callback, with the same ownership contract as a local
// Send(ClientAC, ev): the callback must not retain the event, and the
// engine recycles it when the callback returns.
func (e *Engine) InjectClient(ev *Event) {
	if e.client != nil {
		e.client(ev)
	}
	FreeEvent(ev)
}

// KillAC closes an AC's mailbox, dropping all further deliveries — the
// failure-injection hook used by the reliable-stream tests.
func (e *Engine) KillAC(id ACID) {
	e.box(id).Close()
}

// Stop shuts down all ACs and waits for their goroutines.
func (e *Engine) Stop() {
	// Let any in-flight grow finish registering its ACs so their boxes
	// are collected and closed below.
	e.growMu.Lock()
	defer e.growMu.Unlock()
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	boxes := make([]*stream.Mailbox[any], 0, len(e.boxes))
	for _, b := range e.boxes {
		boxes = append(boxes, b)
	}
	e.mu.Unlock()
	for _, b := range boxes {
		b.Close()
	}
	e.wg.Wait()
}

// realCtx implements Context on wall-clock time. One instance lives per
// AC goroutine; its outbox accumulates the sends of the current handler
// invocation per destination, so a fan-out of N messages to one AC
// leaves as one mailbox push and one wake when the handler returns.
type realCtx struct {
	e    *Engine
	self ACID
	// perDst[dst] buffers pending messages; dirty lists destinations
	// with a non-empty buffer. Buffers keep their capacity across
	// flushes, so steady-state outboxing allocates nothing.
	perDst [][]any
	dirty  []ACID
}

func (c *realCtx) enqueue(dst ACID, m any) {
	if dst < 0 {
		panic(fmt.Sprintf("core: send to unknown AC %d", dst))
	}
	if int(dst) >= len(c.perDst) {
		grown := make([][]any, dst+1)
		copy(grown, c.perDst)
		c.perDst = grown
	}
	if len(c.perDst[dst]) == 0 {
		c.dirty = append(c.dirty, dst)
	}
	c.perDst[dst] = append(c.perDst[dst], m)
}

// flush pushes every per-destination buffer as one batch + one wake.
// SendBatch copies, so the buffers are immediately reusable.
func (c *realCtx) flush() {
	for _, dst := range c.dirty {
		msgs := c.perDst[dst]
		c.e.box(dst).SendBatch(msgs)
		clear(msgs)
		c.perDst[dst] = msgs[:0]
	}
	c.dirty = c.dirty[:0]
}

func (c *realCtx) Self() ACID    { return c.self }
func (c *realCtx) Now() sim.Time { return sim.Time(time.Since(c.e.start).Nanoseconds()) }

// Charge is a no-op: the real work already took real time, however
// much the cost model prices it at.
func (c *realCtx) Charge(sim.Time) {}

// occupy holds the AC for d of real time (Occupy): a modelled window —
// a query optimizer's compile time — so beaming genuinely overlaps
// transfers with compilation on this runtime too. Pending outbox sends
// flush before the window starts: messages issued before it (beamed
// scans) must not wait it out.
func (c *realCtx) occupy(d sim.Time) {
	if d > 0 {
		c.flush()
		time.Sleep(time.Duration(d))
	}
}
func (c *realCtx) Costs() *sim.CostModel { return &c.e.Costs }
func (c *realCtx) Topology() *Topology   { return c.e.Topo }
func (c *realCtx) Offloaded(ACID) bool   { return false }

func (c *realCtx) Send(dst ACID, ev *Event) {
	if dst == ClientAC {
		// Client completions resolve synchronously (they gate Future
		// waiters); the callback must not retain the event.
		if c.e.client != nil {
			c.e.client(ev)
		}
		FreeEvent(ev)
		return
	}
	c.enqueue(dst, ev)
}

func (c *realCtx) SendData(dst ACID, msg *DataMsg) {
	if dst == ClientAC {
		return
	}
	c.enqueue(dst, msg)
}
