// Package anydb is an architecture-less DBMS: a cluster of generic
// AnyComponents (ACs) instrumented by event and data streams, able to
// mimic a shared-nothing system, a shared-disk system, or anything in
// between on a per-transaction/per-query basis purely through routing —
// a from-scratch implementation of Bang et al., "AnyDB: An
// Architecture-less DBMS for Any Workload" (CIDR 2021).
//
// The public API runs the real goroutine runtime: one goroutine per AC,
// multi-producer mailboxes as the event/data streams. The paper's
// figures are reproduced on a deterministic virtual-time twin of this
// runtime by cmd/anydb-bench.
//
// Quick start (blocking client):
//
//	cluster, err := anydb.Open(anydb.Config{})
//	defer cluster.Close()
//	committed, err := cluster.Payment(anydb.Payment{Warehouse: 0, District: 1, Customer: 7, Amount: 42})
//	open, err := cluster.OpenOrders(ctx)
//
// Pipelined client — keep many transactions in flight per session
// instead of one round trip at a time:
//
//	futs := make([]*anydb.Future, 0, 128)
//	for i := 0; i < 128; i++ {
//		f, err := cluster.SubmitPayment(ctx, anydb.Payment{Warehouse: i % 4, District: 1, Customer: 7, Amount: 1})
//		if err != nil { ... }
//		futs = append(futs, f)
//	}
//	for _, f := range futs {
//		committed, err := f.Wait(ctx)
//		...
//	}
package anydb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anydb/internal/adapt"
	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/oltp"
	"anydb/internal/plan"
	"anydb/internal/route"
	"anydb/internal/sim"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
	"anydb/internal/transport"
	"anydb/internal/wal"
)

// Policy selects how transactions are routed over the ACs — the paper's
// §3 execution strategies. All four are selectable at runtime via
// SetPolicy; the self-driving controller (Config.AutoAdapt) chooses
// among the same four.
type Policy int

const (
	// SharedNothing physically aggregates each transaction at its home
	// partition's owner AC (Figure 4b).
	SharedNothing Policy = Policy(oltp.SharedNothing)
	// NaiveIntra farms every operation out to a record-class AC with a
	// conservative one-transaction-per-warehouse admission barrier
	// (Figure 4c). Included for completeness — per §3.2 its per-event
	// overhead dominates.
	NaiveIntra Policy = Policy(oltp.NaiveIntra)
	// PreciseIntra pipelines each transaction as two balanced
	// sub-sequences across two ACs (Figure 4d).
	PreciseIntra Policy = Policy(oltp.PreciseIntra)
	// StreamingCC routes per-record-class segments through a sequencer
	// for lock-free pipelined execution under contention (§3.3).
	StreamingCC Policy = Policy(oltp.StreamingCC)
)

func (p Policy) String() string { return oltp.Policy(p).String() }

// Policies returns all routing policies, in their numeric order.
func Policies() []Policy {
	return []Policy{SharedNothing, NaiveIntra, PreciseIntra, StreamingCC}
}

// Config sizes the cluster and the built-in TPC-C-style database.
type Config struct {
	// Servers and CoresPerServer define the initial topology
	// (default 2×4, the paper's Figure 2 layout). CoresPerServer must be
	// at least 4: the control server hosts the dispatcher, sequencer,
	// commit-coordinator and query-optimizer roles on separate ACs.
	Servers        int
	CoresPerServer int
	// Warehouses etc. size the database (defaults are small; 0 picks
	// the default). Negative sizes are rejected, and so are more than
	// 4096 warehouses or 255 districts per warehouse: the storage key
	// packs the warehouse id into 12 bits and the district id into 8.
	Warehouses           int
	Districts            int
	CustomersPerDistrict int
	Items                int
	InitialOrdersPerDist int
	Seed                 int64
	// AutoAdapt turns on the self-driving loop: dispatchers report
	// workload signals to an adaptation-controller AC, which switches
	// the routing policy (and grows a server when analytical load
	// appears) on its own. The controller ranks policies with a
	// measured cost model: it starts from the hand-calibrated prior,
	// brackets every switch with probe phases, and converges on
	// realized throughput per workload class (regret is traced in
	// AdaptationLog). Inspect what it did via AdaptationLog, or
	// subscribe with Events.
	AutoAdapt bool
	// AutoRebalance extends the self-driving loop to data placement:
	// when one partition owner carries far more than its fair share of
	// admissions, the controller performs a live SetOwner handoff
	// moving a hot warehouse to a cooler AC — elasticity and
	// repartitioning out of the same observe→decide→reroute loop that
	// switches policies (§5: placement is just routing). Works with or
	// without AutoAdapt; manual Rebalance calls are rejected while it
	// is on. Migrations appear as EvRebalance entries in
	// AdaptationLog/Events.
	AutoRebalance bool
	// AdaptWindow is the sliding signal window for AutoAdapt and
	// AutoRebalance (default 10ms wall clock).
	AdaptWindow time.Duration
	// Durability selects the write-ahead command log. Off (the default)
	// keeps everything in memory. Under Batch, the only other value,
	// every dispatcher AC appends its admitted transactions' command
	// records to one cluster-wide log and parks them; a single
	// log-writer goroutine fsyncs whatever has accumulated while the
	// previous fsync ran (pipelined group commit: the group size follows
	// the load, there is nothing to tune) and releases the transactions
	// it covered. Each dispatcher asks for a sync once per mailbox
	// drain. A transaction's segments dispatch only after its record is
	// durable, so an acknowledged commit survives a crash, and no AC
	// goroutine waits for the device. Open replays any logs found in
	// WALDir into the fresh database before serving (full replay from
	// genesis — no checkpointing yet; see ROADMAP).
	Durability Durability
	// WALDir is the directory holding the command log, wal-shared.log.
	// Per-dispatcher wal-NNNN.log files written by earlier versions are
	// replayed first on Open and never written again. Required when
	// Durability is not Off.
	WALDir string
	// HeartbeatInterval paces liveness Pings between the head and member
	// processes on a multi-process cluster (default 1s; < 0 disables).
	// A peer silent for ~3 intervals is considered failed.
	HeartbeatInterval time.Duration
	// MemberGrace is how long the head waits for a disconnected member
	// to redial before declaring it dead and pulling its partitions home
	// (default 2s).
	MemberGrace time.Duration
	// Listen and RemoteServers turn the cluster into the head of a real
	// multi-process deployment: Open listens on Listen (host:port) and
	// waits for RemoteServers member processes (cmd/anydbd, or
	// ServeNode) to join. Each member hosts one server's ACs in its own
	// OS process; the event and data streams to those ACs travel over
	// batched TCP frames (internal/transport) with semantics identical
	// to the in-process mailboxes, and partitions rotate over the
	// head's executors and every member's ACs, so cross-process
	// transactions and scans flow from the first request. The routing
	// policy is fixed to SharedNothing (every access to a partition
	// happens at its owner — the only policy whose correctness does not
	// depend on a single shared heap), and AutoAdapt/AutoRebalance are
	// rejected; live Rebalance across processes is fully supported (the
	// quiet-window handoff ships the partition's rows between
	// processes).
	Listen        string
	RemoteServers int
}

// Cluster is a running architecture-less DBMS instance.
type Cluster struct {
	eng   *core.Engine
	topo  *core.Topology
	db    *storage.Database
	cfg   tpcc.Config
	cores int // cores per server, for elastic growth

	// asm builds every AC (Open and AddServer hand it to the engine),
	// holds the dispatcher registry and the active routing policy, and
	// names the AC roles: asm.Lay is fixed once built, so the submission
	// hot path reads it without a lock.
	asm *route.Assembly

	// The submission plane (see submit.go). whCounts holds the in-flight
	// counters (transactions AND analytical queries): per submission
	// shard, one counter per warehouse bit (see whSlots). plane is the
	// published submitGate, carrying the active routing policy and the
	// gated warehouse mask. The steady-state entry (enterAt/exitShard)
	// takes no mutex; switchMu serializes the drains only — SetPolicy,
	// Verify, Close and partition handoffs.
	whCounts  []atomic.Int64
	shardMask int32
	plane     atomic.Pointer[submitGate]
	drainWake chan struct{}
	switchMu  sync.Mutex
	// closed flips once (Close); closedCh unblocks every parked entry
	// and drain, closeDrained marks the final drain's completion (safe
	// to read the database), closeDone marks full teardown.
	closed       atomic.Bool
	closedCh     chan struct{}
	closeDrained chan struct{}
	closeDone    chan struct{}

	// Every submission bumps nextTxn; the pad keeps that write off the
	// cache line of the fields above that every entry reads (plane).
	_       [64]byte
	nextTxn atomic.Uint64
	nextQ   atomic.Uint64

	// qMu guards the analytical-query completion table. Queries keep a
	// registration map (results are streamed values, not tokens); their
	// in-flight counts still live in the lock-free whCounts. Off the
	// transaction hot path.
	qMu   sync.Mutex
	qWait map[core.QueryID]*queryWait

	// mu guards the remaining slow-path state: the adaptation log and
	// decision queue, the grown placement pool, and the Events
	// subscribers.
	mu sync.Mutex
	// subs are live Events subscribers; a subscriber detaches when its
	// context ends (reaped lazily at the next publish) and all remaining
	// channels close on Close.
	subs []eventSub

	// futPool recycles Futures (and their 1-buffered channels) so the
	// pipelined submission hot path allocates nothing per call in steady
	// state.
	futPool sync.Pool
	// nextSess round-robins the sessions' pinned submission shards so
	// concurrent sessions spread over the counters.
	nextSess atomic.Uint32

	// Self-driving state (Config.AutoAdapt; the controller is asm.Ctrl).
	// Decisions queue under mu and the applier is kicked via decKick:
	// the controller assumes every emitted decision is applied (it
	// tracks the policy it chose), so none may be dropped.
	autoAdapt     bool
	autoRebalance bool
	adaptLog      []AdaptationEvent
	decQ          []*adapt.Decision
	decKick       chan struct{}
	applierWG     sync.WaitGroup
	start         time.Time
	// ownerCands is the placement pool the controller's Move decisions
	// index into: the executor ACs, extended by every elastically grown
	// server's ACs — so after a grow the controller can migrate OLTP
	// load onto hardware that did not exist a moment ago.
	ownerCands atomic.Pointer[[]core.ACID]
	// growAsked flips once the controller requested elastic growth;
	// query-completion signals only feed that one-shot trigger, so
	// injecting them afterwards would be pure overhead on the
	// controller AC.
	growAsked atomic.Bool
	// unmatchedDone counts completion events with no waiting caller —
	// a lost or double-resolved transaction if ever nonzero.
	unmatchedDone atomic.Int64

	// Multi-process deployment (Config.RemoteServers > 0; distributed.go).
	// remoteACs marks ACs hosted by member processes (nil on a purely
	// local cluster — the hot paths pay one nil check); tokens is the
	// head's client-token registry (futures never cross the wire, their
	// table keys do); peers are the joined member connections and
	// rpcWait matches partition-migration replies to their requests.
	remoteACs []bool
	tokens    *transport.TokenTable
	ln        net.Listener
	peers     []*member
	serveWG   sync.WaitGroup
	rpcSeq    atomic.Uint64
	rpcMu     sync.Mutex
	rpcWait   map[uint64]chan any

	// Durability plane (Config.Durability != DurabilityOff): the one
	// command log every dispatcher appends to (asm.Log), its device, and
	// the writer goroutine wal.Logger.Start runs (logDurable is its
	// notify). walApplied counts replayed transactions — when nonzero on
	// a multi-process cluster, the head pushes the replayed partitions to
	// joining members (they repopulate from the seed and would otherwise
	// miss recovered state).
	walDev     *wal.FileDevice
	walLog     *wal.Logger
	walApplied int

	// Failure-detection pacing (multi-process clusters; distributed.go).
	heartbeat   time.Duration
	memberGrace time.Duration

	// plans keeps the compiled template of each recent statement text.
	// Last, so adding it shifted no other field.
	plans planCache
}

// Durability selects how (whether) the cluster logs admitted
// transactions before executing them; see Config.Durability.
type Durability uint8

const (
	// DurabilityOff runs fully in memory (the default).
	DurabilityOff Durability = iota
	// DurabilityBatch group-commits: a dispatcher asks the log writer
	// for a sync once per mailbox drain cycle, and each fsync covers
	// everything any dispatcher admitted while the previous one ran.
	DurabilityBatch
)

func (d Durability) String() string {
	switch d {
	case DurabilityOff:
		return "Off"
	case DurabilityBatch:
		return "Batch"
	}
	return fmt.Sprintf("Durability(%d)", uint8(d))
}

// sharedWAL names the cluster-wide command log inside Config.WALDir. It
// matches wal-*.log like the per-dispatcher wal-NNNN.log files earlier
// versions wrote (and sorts after them); replay applies those first.
const sharedWAL = "wal-shared.log"

// ErrClosed is returned by every entry point once Close has begun;
// match it with errors.Is to distinguish shutdown from other failures.
var ErrClosed = errors.New("anydb: cluster closed")

// ErrMemberDown resolves work that was in flight against a cluster
// member that died: pending Future.Wait calls and analytical queries
// fail with it instead of hanging. The member's partitions are pulled
// home to the head and subsequent submissions succeed.
var ErrMemberDown = errors.New("anydb: cluster member down")

// Open populates the database and starts the AC goroutines.
func Open(cfg Config) (*Cluster, error) {
	tc := tpcc.Config{
		Warehouses: cfg.Warehouses, Districts: cfg.Districts,
		Customers: cfg.CustomersPerDistrict, Items: cfg.Items,
		InitOrders: cfg.InitialOrdersPerDist, LinesPerOrder: 1, Seed: cfg.Seed,
	}.WithDefaults()
	if cfg.Servers == 0 {
		cfg.Servers = 2
	}
	if cfg.CoresPerServer == 0 {
		cfg.CoresPerServer = 4
	}
	if cfg.Servers < 2 {
		return nil, errors.New("anydb: need at least 2 servers (executors + control)")
	}
	if cfg.CoresPerServer < 4 {
		return nil, fmt.Errorf("anydb: CoresPerServer = %d, need at least 4 (the control server hosts the dispatcher, sequencer, coordinator and query-optimizer roles)", cfg.CoresPerServer)
	}
	if cfg.Durability > DurabilityBatch {
		return nil, fmt.Errorf("anydb: unknown %v, want DurabilityOff or DurabilityBatch", cfg.Durability)
	}
	for _, size := range []struct {
		name string
		n    int
	}{
		{"Warehouses", tc.Warehouses}, {"Districts", tc.Districts},
		{"CustomersPerDistrict", tc.Customers}, {"Items", tc.Items},
		{"InitialOrdersPerDist", tc.InitOrders},
	} {
		if size.n < 0 {
			return nil, fmt.Errorf("anydb: Config.%s = %d is negative", size.name, size.n)
		}
	}
	if tc.Warehouses > 4096 || tc.Districts > 255 {
		// storage.MakeKey packs the warehouse id into 12 bits and the
		// district id into 8.
		return nil, fmt.Errorf("anydb: %d warehouses of %d districts exceed the key layout (at most 4096 of 255)", tc.Warehouses, tc.Districts)
	}
	db, _ := tpcc.NewDatabase(tc)

	c := &Cluster{
		db: db, cfg: tc, cores: cfg.CoresPerServer,
		qWait:        make(map[core.QueryID]*queryWait),
		drainWake:    make(chan struct{}, 1),
		closedCh:     make(chan struct{}),
		closeDrained: make(chan struct{}),
		closeDone:    make(chan struct{}),
		start:        time.Now(),
	}
	if cfg.Durability != DurabilityOff {
		if cfg.WALDir == "" {
			return nil, errors.New("anydb: Config.Durability requires Config.WALDir")
		}
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("anydb: WALDir: %w", err)
		}
		// Recovery: replay every existing log into the freshly populated
		// database before any AC serves traffic. The shared log records
		// one global append order; it preserves each dispatcher's
		// admission order, while records of different dispatchers may
		// sit in either order relative to their execution — sound
		// because transactions admitted by different dispatchers in the
		// same epoch never conflicted (SharedNothing partitioning) or
		// were serialized by acks before acking clients. Legacy
		// per-dispatcher logs predate everything in the shared log and
		// replay first.
		if err := c.replayWAL(cfg.WALDir); err != nil {
			return nil, err
		}
	}
	c.heartbeat = cfg.HeartbeatInterval
	if c.heartbeat == 0 {
		c.heartbeat = time.Second
	} else if c.heartbeat < 0 {
		c.heartbeat = 0 // explicitly disabled
	}
	c.memberGrace = cfg.MemberGrace
	if c.memberGrace <= 0 {
		c.memberGrace = 2 * time.Second
	}
	// Size the submission shards to the parallelism the runtime can
	// actually offer (power of two for cheap masking; each shard's row
	// is whSlots counters, a multiple of the cache line): enough that
	// concurrent sessions rarely share a counter.
	nshards := 1
	for nshards < 4*runtime.GOMAXPROCS(0) {
		nshards <<= 1
	}
	if nshards < 8 {
		nshards = 8
	}
	if nshards > 256 {
		nshards = 256
	}
	c.shardMask = int32(nshards - 1)
	c.whCounts = make([]atomic.Int64, nshards*whSlots)
	c.plane.Store(&submitGate{policy: SharedNothing})
	c.topo = core.NewTopology(db)
	for s := 0; s < cfg.Servers; s++ {
		c.topo.AddServer(cfg.CoresPerServer)
	}
	c.asm = route.NewAssembly(db, c.topo)
	if c.walLog != nil {
		c.asm.Log = c.walLog
	}
	execs := c.asm.Lay.Execs
	ownerPool := execs
	if cfg.RemoteServers > 0 {
		remote, err := c.addRemoteServers(cfg)
		if err != nil {
			c.closeWAL()
			return nil, err
		}
		// Partitions rotate over the head's executors AND every member's
		// ACs, so cross-process segments and scans flow from the first
		// request rather than only after a Rebalance.
		ownerPool = append(append([]core.ACID(nil), execs...), remote...)
	}
	for w := 0; w < tc.Warehouses; w++ {
		c.topo.SetOwner(w, ownerPool[w%len(ownerPool)])
	}
	if cfg.AutoAdapt || cfg.AutoRebalance {
		c.autoAdapt, c.autoRebalance = cfg.AutoAdapt, cfg.AutoRebalance
		window := cfg.AdaptWindow
		if window <= 0 {
			window = 10 * time.Millisecond
		}
		cands := append([]core.ACID(nil), execs...)
		c.ownerCands.Store(&cands)
		opts := adapt.Options{
			Start: oltp.SharedNothing,
			// Candidates defaults to all four §3 policies: the public
			// runtime routes every one of them (internal/route), so the
			// controller chooses over the full architecture space. The
			// measured model starts from the hand-calibrated prior and
			// converges on realized throughput per workload class.
			Model:      adapt.NewMeasuredModel(nil),
			Env:        adapt.Env{Executors: len(execs), Warehouses: tc.Warehouses},
			WindowSpan: sim.Time(window.Nanoseconds()),
			Elastic:    cfg.AutoAdapt,
			Rebalance:  cfg.AutoRebalance,
			OwnerIdx:   c.ownerIdx,
			NumOwners:  func() int { return len(*c.ownerCands.Load()) },
			// The goroutine runtime delivers telemetry in mailbox
			// bursts; evaluate on report count too so a burst is scored
			// while its reports are still inside the window.
			EvalEvery: 8,
		}
		if !cfg.AutoAdapt {
			// Rebalance-only self-driving: the controller owns
			// placement but never switches the routing policy.
			opts.Candidates = []oltp.Policy{oltp.SharedNothing}
		}
		c.asm.Ctrl = adapt.NewController(opts)
		c.decKick = make(chan struct{}, 1)
		c.applierWG.Add(1)
		go c.runApplier()
	}
	if c.remoteACs != nil {
		c.eng = core.NewEngineAt(c.topo, c.asm.SetupAC, func(id core.ACID) bool { return !c.remoteACs[id] })
	} else {
		c.eng = core.NewEngine(c.topo, c.asm.SetupAC)
	}
	c.eng.SetClient(c.onDone)
	if c.walLog != nil {
		c.walLog.Start(c.logDurable)
	}
	if c.remoteACs != nil {
		if err := c.acceptMembers(cfg); err != nil {
			c.eng.Stop()
			c.closeWAL()
			c.ln.Close()
			return nil, err
		}
	}
	return c, nil
}

// replayWAL re-executes every wal-*.log in dir against the freshly
// populated database — legacy per-dispatcher logs in name order, read
// only, then the shared log — and opens the shared log for appending:
// truncated back to its last intact record (discarding a torn tail from
// a mid-write crash) with the logger resuming at the replayed LSN.
func (c *Cluster) replayWAL(dir string) error {
	shared := filepath.Join(dir, sharedWAL)
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return fmt.Errorf("anydb: scanning WALDir: %w", err)
	}
	if i := slices.Index(paths, shared); i >= 0 {
		paths = slices.Delete(paths, i, i+1)
	}
	for _, path := range append(paths, shared) {
		dev, err := wal.OpenFile(path)
		if err != nil {
			return fmt.Errorf("anydb: opening %s: %w", path, err)
		}
		applied, clean, last, err := wal.Replay(dev, c.db)
		if err != nil {
			dev.Close()
			return fmt.Errorf("anydb: replaying %s: %w", path, err)
		}
		c.walApplied += applied
		if path != shared {
			dev.Close()
			continue
		}
		if err := dev.Truncate(clean); err != nil {
			dev.Close()
			return fmt.Errorf("anydb: truncating %s: %w", path, err)
		}
		c.walDev = dev
		c.walLog = wal.NewLogger(dev, 0)
		c.walLog.Resume(last)
	}
	return nil
}

// logDurable is the log writer's notify (it runs on the writer
// goroutine after every group commit): tell each dispatcher that has
// parked transactions how far the log is durable, or that it failed.
// The notice rides a pooled event, so the durable path adds no
// per-transaction allocation.
func (c *Cluster) logDurable(durable uint64, err error) {
	c.asm.EachParked(func(id core.ACID) {
		ev := core.GetEvent()
		ev.Kind, ev.Seq = core.EvLogDurable, durable
		if err != nil {
			ev.Payload = err
		}
		if !c.eng.Inject(id, ev) {
			core.FreeEvent(ev) // engine stopping: nothing is parked any more
		}
	})
}

// closeWAL stops the log writer (after a final flush) and closes the
// device. The AC goroutines must be gone: nothing may append any more.
func (c *Cluster) closeWAL() {
	if c.walLog == nil {
		return
	}
	c.walLog.Stop()
	c.walDev.Close()
}

// SetPolicy reroutes subsequent transactions. It gates new submissions
// and waits for in-flight transactions and analytical queries to finish
// first, so conflicting work never straddles two routings — the
// architecture shift itself is instantaneous (§2.1: no reconfiguration
// downtime). Safe to call concurrently with Payment/NewOrder/Submit*
// and queries from any goroutine: work arriving mid-switch briefly
// blocks, then runs under the new routing. Canceling ctx abandons the
// switch (the old routing stays in effect) and releases gated callers.
// A policy outside Policies() is an error.
//
// On a self-driving cluster (Config.AutoAdapt) the controller owns the
// routing; manual switches would silently fight it, so SetPolicy
// returns an error instead.
func (c *Cluster) SetPolicy(ctx context.Context, p Policy) error {
	if !slices.Contains(Policies(), p) {
		return fmt.Errorf("anydb: unknown policy %d, want one of Policies()", int(p))
	}
	if c.autoAdapt {
		return errors.New("anydb: cluster is self-driving (Config.AutoAdapt); the controller owns the policy")
	}
	if c.remoteACs != nil && p != SharedNothing {
		// The fine-grained policies execute writes off the partition
		// owners; on a multi-process cluster that would write through
		// the head's stale copy of remote-owned partitions.
		return errors.New("anydb: multi-process clusters run SharedNothing only")
	}
	return c.setPolicy(ctx, p)
}

// setPolicy is the switch path shared by SetPolicy and the adaptation
// applier. The drain covers transactions AND analytical queries: under
// the fine-grained policies writes execute off the partition owners, so
// a query scan straddling the switch could race them. The switch gates
// every warehouse bit in use plus the query bit, waits for the
// in-flight counters under them to drain, reconfigures the dispatchers
// and reopens under the new policy.
func (c *Cluster) setPolicy(ctx context.Context, p Policy) error {
	c.switchMu.Lock()
	defer c.switchMu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	g, err := c.drainLocked(ctx, c.allMask())
	if err != nil {
		return err
	}
	c.asm.SetPolicy(oltp.Policy(p))
	c.reopenLocked(g, p)
	return nil
}

// Payment identifies a TPC-C payment (§2.5).
type Payment struct {
	Warehouse, District int     // paying warehouse/district
	Customer            int     // customer id (ignored when ByLastName)
	ByLastName          bool    // select customer by last name
	LastName            string  // TPC-C syllable name, e.g. "BARBARBAR"
	Amount              float64 // payment amount
	// CustomerWarehouse/District default to the paying ones.
	CustomerWarehouse, CustomerDistrict int
}

// OrderLine is one new-order line.
type OrderLine struct {
	Item, Qty, SupplyWarehouse int
}

// NewOrder identifies a TPC-C new-order (§2.4).
type NewOrder struct {
	Warehouse, District, Customer int
	Lines                         []OrderLine
}

// idCheck records the first transaction id that lies outside its range.
// Every id is checked before the submission enters the plane: past it, a
// bad warehouse panics the entry routing or an AC.
type idCheck struct{ err error }

// in checks that id lies in [lo,hi).
func (k *idCheck) in(what string, id, lo, hi int) {
	if k.err == nil && (id < lo || id >= hi) {
		k.err = fmt.Errorf("anydb: %s %d out of range [%d,%d)", what, id, lo, hi)
	}
}

// paymentTxn builds a pooled transaction; the dispatcher recycles it
// once the op program is compiled (ROADMAP: the client-side *tpcc.Txn
// was one of the three remaining steady-state allocations).
func (c *Cluster) paymentTxn(p Payment) (*tpcc.Txn, error) {
	cw, cd := p.CustomerWarehouse, p.CustomerDistrict
	if cw == 0 && cd == 0 {
		cw, cd = p.Warehouse, p.District
	}
	var k idCheck
	k.in("warehouse", p.Warehouse, 0, c.cfg.Warehouses)
	k.in("district", p.District, 1, c.cfg.Districts+1)
	k.in("customer warehouse", cw, 0, c.cfg.Warehouses)
	k.in("customer district", cd, 1, c.cfg.Districts+1)
	if !p.ByLastName {
		k.in("customer", p.Customer, 1, c.cfg.Customers+1)
	}
	if k.err != nil {
		return nil, k.err
	}
	if math.IsNaN(p.Amount) || math.IsInf(p.Amount, 0) {
		// It would commit, be logged and replayed, and leave every
		// year-to-date sum it touched failing Verify for good.
		return nil, fmt.Errorf("anydb: payment amount %v is not finite", p.Amount)
	}
	t := tpcc.GetTxn()
	t.Kind = tpcc.TxnPayment
	t.Payment = tpcc.Payment{
		W: p.Warehouse, D: p.District, CW: cw, CD: cd,
		C: p.Customer, ByLast: p.ByLastName, Amount: p.Amount,
	}
	if p.ByLastName {
		num := tpcc.LastNameNum(p.LastName)
		if num < 0 {
			tpcc.FreeTxn(t)
			return nil, fmt.Errorf("anydb: %q is not a TPC-C last name", p.LastName)
		}
		t.Payment.Last = num
	}
	return t, nil
}

func (c *Cluster) newOrderTxn(no NewOrder) (*tpcc.Txn, error) {
	var k idCheck
	k.in("warehouse", no.Warehouse, 0, c.cfg.Warehouses)
	k.in("district", no.District, 1, c.cfg.Districts+1)
	k.in("customer", no.Customer, 1, c.cfg.Customers+1)
	for _, l := range no.Lines {
		k.in("supply warehouse", l.SupplyWarehouse, 0, c.cfg.Warehouses)
	}
	if k.err != nil {
		return nil, k.err
	}
	t := tpcc.GetTxn()
	t.Kind = tpcc.TxnNewOrder
	t.NewOrder = tpcc.NewOrder{W: no.Warehouse, D: no.District, C: no.Customer}
	for _, l := range no.Lines {
		t.NewOrder.Lines = append(t.NewOrder.Lines, tpcc.NewOrderLine{
			Item: l.Item, Qty: l.Qty, SupplyW: l.SupplyWarehouse,
		})
	}
	return t, nil
}

// Future is the pending result of a submitted transaction. A Future
// from any entry point (Cluster.Submit* or Session.Submit*) may be
// handed to, and Waited on by, any goroutine — one Wait at a time.
// Futures are pooled: Wait consumes the future, and calling Wait again —
// or after a Wait that returned the transaction's result — panics if
// the future is still in the pool (a recycled future would otherwise
// steal another caller's result; the guard is best-effort once it is
// re-issued).
type Future struct {
	c  *Cluster
	ch chan bool
	// shard is the submission shard this future's transaction entered,
	// and mask the warehouse bits it counted against; the completion
	// callback releases exactly those counts (see submit.go). The
	// future itself is the completion token: it rides the event plane
	// (core.Event.Client) and comes back on the DoneInfo, so resolving
	// needs no shared lookup table.
	shard int32
	mask  uint64
	// state sequences the waiter against the completion callback:
	// whichever side transitions it out of futPending owns delivery
	// (resolver) or abandonment (waiter); the loser follows the winner
	// and parks the future back in the pool (futPooled).
	state atomic.Uint32
	// err distinguishes an infrastructure failure (ErrMemberDown: the
	// member executing a segment died) from a logical rollback. Written
	// by the completion callback before the channel send, read by Wait
	// after the receive — the channel orders the pair.
	err error
}

const (
	futPending uint32 = iota
	futDelivered
	futAbandoned
	futPooled
)

func (c *Cluster) getFuture() *Future {
	if v := c.futPool.Get(); v != nil {
		f := v.(*Future)
		f.err = nil
		f.state.Store(futPending)
		return f
	}
	return &Future{c: c, ch: make(chan bool, 1)}
}

// park returns a consumed future to the cluster's pool. Its channel is
// empty: park runs on whichever side touches the future last — Wait
// after it received the result, or resolve after the waiter abandoned.
func (f *Future) park() {
	f.state.Store(futPooled)
	f.c.futPool.Put(f)
}

// resolve delivers the transaction outcome. Runs on AC goroutines and
// never blocks: the channel holds one result and each registration sends
// at most once.
func (f *Future) resolve(committed bool) {
	if f.state.CompareAndSwap(futPending, futDelivered) {
		f.ch <- committed
		return
	}
	// The waiter abandoned the future (context canceled); nobody will
	// ever Wait on it again, so recycle it here.
	f.park()
}

// Wait blocks until the transaction resolves and reports whether it
// committed (false with a nil error means it rolled back; false with
// ErrMemberDown means the cluster member executing one of its segments
// died before acknowledging). If ctx is
// canceled first, Wait returns ctx.Err() immediately; the transaction
// itself still completes in the background — cancellation abandons the
// wait, not the work — and the cluster's in-flight accounting drains
// normally.
func (f *Future) Wait(ctx context.Context) (bool, error) {
	if f.state.Load() == futPooled {
		panic("anydb: Future.Wait called on a consumed future")
	}
	select {
	case committed := <-f.ch:
		err := f.err
		f.park()
		return committed, err
	case <-ctx.Done():
		if f.state.CompareAndSwap(futPending, futAbandoned) {
			return false, ctx.Err()
		}
		// Lost the race: the result is (about to be) in the channel.
		committed := <-f.ch
		err := f.err
		f.park()
		return committed, err
	}
}

// SubmitPayment enqueues a payment transaction and returns immediately
// with a Future for its outcome. Submissions pipeline: a caller can
// keep hundreds in flight and Wait on them in any order. ctx bounds only
// the submission itself (it can block while a policy switch drains);
// pass it again to Future.Wait to bound the wait.
func (c *Cluster) SubmitPayment(ctx context.Context, p Payment) (*Future, error) {
	t, err := c.paymentTxn(p)
	if err != nil {
		return nil, err
	}
	return c.submit(ctx, t)
}

// SubmitNewOrder enqueues a new-order transaction; see SubmitPayment.
func (c *Cluster) SubmitNewOrder(ctx context.Context, no NewOrder) (*Future, error) {
	t, err := c.newOrderTxn(no)
	if err != nil {
		return nil, err
	}
	return c.submit(ctx, t)
}

// Payment executes a payment transaction and reports whether it
// committed. It is SubmitPayment + Wait without a deadline.
func (c *Cluster) Payment(p Payment) (bool, error) {
	f, err := c.SubmitPayment(context.Background(), p)
	if err != nil {
		return false, err
	}
	return f.Wait(context.Background())
}

// NewOrder executes a new-order transaction; false means the transaction
// rolled back (invalid item). It is SubmitNewOrder + Wait without a
// deadline.
func (c *Cluster) NewOrder(no NewOrder) (bool, error) {
	f, err := c.SubmitNewOrder(context.Background(), no)
	if err != nil {
		return false, err
	}
	return f.Wait(context.Background())
}

// submit is the session-less transaction entry: submitAt on the calling
// goroutine's fingerprinted shard.
func (c *Cluster) submit(ctx context.Context, t *tpcc.Txn) (*Future, error) {
	return c.submitAt(ctx, t, c.shardIdx())
}

// submitAt is the one transaction entry, for sessions (si pinned at
// open) and session-less callers alike. Uncontended it takes zero locks:
// entry is an atomic add per warehouse on shard si, the id an atomic
// counter, the event and future pooled, and the future itself travels
// as the completion token — nothing left to serialize.
func (c *Cluster) submitAt(ctx context.Context, t *tpcc.Txn, si int32) (*Future, error) {
	mask := txnMask(t)
	g, err := c.enterAt(ctx, si, mask)
	if err != nil {
		tpcc.FreeTxn(t)
		return nil, err
	}
	id := core.TxnID(c.nextTxn.Add(1))
	f := c.getFuture()
	f.shard, f.mask = si, mask
	// Resolve the entry AC before injecting: the dispatcher consumes
	// (and recycles) the txn, so it must not be touched after Inject.
	entry := route.Entry(oltp.Policy(g.policy), c.asm.Lay, t.HomeWarehouse())
	if c.remoteACs != nil && c.remoteACs[entry] {
		// Raw transactions never cross the wire (their op programs are
		// compiled from closures): enter at the head dispatcher instead,
		// which compiles locally and ships the routed segments — the
		// wire-encodable form — to the remote owner.
		entry = c.asm.Lay.Dispatch
	}
	ev := core.GetEvent()
	ev.Kind, ev.Txn, ev.Payload, ev.Client = core.EvTxn, id, t, f
	c.eng.Inject(entry, ev)
	return f, nil
}

// QueryOptions tunes analytical query execution.
type QueryOptions struct {
	// Beam initiates data streams at query arrival so transfers overlap
	// the compile window (§4 data beaming). Default off here; the
	// one-argument OpenOrders enables it.
	Beam bool
	// CompileDelay models the query-optimizer compile window (the paper
	// cites ~30ms for a commercial DBMS). With Beam set, scans push
	// data during this window.
	CompileDelay time.Duration
}

// OpenOrders runs the paper's analytical query (§4: all open orders for
// customers from states 'A%' since 2007) with full data beaming. It is a
// documented wrapper over the SQL path (the text is tpcc.Q3SQL):
//
//	cluster.QueryRow(ctx, "SELECT COUNT(*) FROM customer JOIN orders ... JOIN new_order ...")
func (c *Cluster) OpenOrders(ctx context.Context) (int64, error) {
	return c.OpenOrdersOpts(ctx, QueryOptions{Beam: true})
}

// OpenOrdersOpts runs the analytical query with explicit options; it
// compiles the same SQL text as OpenOrders through the generic planner.
// Joins are placed on the newest server — disaggregated from the OLTP
// owners — so AddServer immediately gives analytics fresh compute (§5
// elasticity). Canceling ctx abandons the wait (the query completes in
// the background and its result is dropped).
//
// Scans execute at each partition's owner AC, interleaved with that
// partition's transactions, so concurrent OLTP is safe under the
// SharedNothing policy (all access to a partition serializes at its
// owner). Under the fine-grained policies — NaiveIntra, PreciseIntra,
// StreamingCC — writes run on record-class ACs instead of the owners;
// run analytics only while OLTP is quiescent in those modes. Policy
// switches drain in-flight queries, so a query never straddles a
// routing change.
func (c *Cluster) OpenOrdersOpts(ctx context.Context, o QueryOptions) (int64, error) {
	res, err := c.runQuery(ctx, tpcc.Q3SQL, o)
	if err != nil {
		return 0, err
	}
	rows := newRows(res)
	defer rows.Close()
	var n int64
	if !rows.Next() {
		return 0, ErrNoRows
	}
	if err := rows.Scan(&n); err != nil {
		return 0, err
	}
	return n, nil
}

// Query executes a read-only SQL query and streams the result. The
// grammar (internal/sql) covers filters over arbitrary columns, inner
// equi-joins, grouped aggregates (COUNT/SUM/MIN/MAX/AVG), ORDER BY and
// LIMIT:
//
//	rows, err := cluster.Query(ctx, `SELECT o_d_id, COUNT(*) FROM orders
//		WHERE o_entry_d >= 2007 GROUP BY o_d_id ORDER BY COUNT(*) DESC LIMIT 3`)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var d, n int64
//		if err := rows.Scan(&d, &n); err != nil { ... }
//	}
//
// Results iterate over the engine's pooled column batches directly — no
// [][]any materialization — and each batch is recycled as the cursor
// passes it. Scans attach to a per-partition shared cursor, so
// concurrent queries over the same table ride one scan pass; joins run
// on the newest server with full data beaming. Canceling ctx abandons
// the wait (the query completes in the background and its result set is
// recycled).
func (c *Cluster) Query(ctx context.Context, text string) (*Rows, error) {
	res, err := c.runQuery(ctx, text, QueryOptions{Beam: true})
	if err != nil {
		return nil, err
	}
	return newRows(res), nil
}

// QueryRow executes a query expected to return at most one row and
// defers errors to Scan:
//
//	var n int64
//	err := cluster.QueryRow(ctx, "SELECT COUNT(*) FROM district").Scan(&n)
//
// If the query returns no rows, Scan returns ErrNoRows; extra rows are
// discarded (and their batches recycled).
func (c *Cluster) QueryRow(ctx context.Context, text string) *Row {
	res, err := c.runQuery(ctx, text, QueryOptions{Beam: true})
	if err != nil {
		return &Row{err: err}
	}
	rows := newRows(res)
	defer rows.Close()
	if !rows.Next() {
		return &Row{err: ErrNoRows}
	}
	b := rows.batches[rows.bi]
	vals := make([]storage.Value, len(rows.cols))
	for i := range vals {
		vals[i] = b.Value(rows.ri, i)
	}
	return &Row{cols: rows.cols, vals: vals}
}

// computeACs picks the pool that hosts a query's joins and final sink:
// the ACs of the highest-numbered live server. Normally that is the
// newest server — analytics get fresh compute, disaggregated from the
// OLTP owners (§5 elasticity) — but a cluster member the head has
// declared dead is skipped, falling back toward the head, so analytics
// keep flowing after a failover instead of planning onto a corpse.
func (c *Cluster) computeACs() []core.ACID {
	for s := c.topo.NumServers() - 1; s > 0; s-- {
		if !c.serverDown(s) {
			return c.topo.ACs(s)
		}
	}
	return c.topo.ACs(0)
}

// serverDown reports whether server s is a cluster member declared
// dead. Local servers and live members report false.
func (c *Cluster) serverDown(s int) bool {
	for _, m := range c.peers {
		if m.server == s {
			return m.down.Load()
		}
	}
	return false
}

// runQuery is the analytical entry point shared by Query, QueryRow and
// the OpenOrders wrappers: compile onto the shared-scan operator plane
// (or take the statement's kept template) and bind, register with the
// in-flight accounting, inject, await.
func (c *Cluster) runQuery(ctx context.Context, text string, o QueryOptions) (*olap.QueryResult, error) {
	return c.runQueryAt(ctx, text, o, -1)
}

// runQueryAt is runQuery with a caller-pinned submission shard (< 0
// fingerprints the goroutine as usual); Session.Query pins its own. The
// statement's template comes from the cluster's plan cache, and the
// query binds its id, streams and the compute ACs live at this moment,
// so a query after a failover or an elastic grow runs on live ACs.
func (c *Cluster) runQueryAt(ctx context.Context, text string, o QueryOptions, si int32) (*olap.QueryResult, error) {
	t, err := c.plans.template(c.db.Catalog, text)
	if err != nil {
		return nil, err
	}
	if c.closed.Load() {
		return nil, ErrClosed
	}
	qid := core.QueryID(c.nextQ.Add(1))

	parts := make([]int, c.cfg.Warehouses)
	for i := range parts {
		parts[i] = i
	}
	p := t.Bind(qid, parts, c.computeACs(), core.ClientAC)
	if o.Beam {
		p.Beam = plan.BeamAll
	}
	p.CompileTime = sim.Time(o.CompileDelay.Nanoseconds())

	// Enter the plane only once compilation succeeded (entry re-reads
	// the gate, so a registration can never slip past Close's drain).
	ch, err := c.registerQueryID(ctx, qid, si)
	if err != nil {
		return nil, err
	}
	qev := core.GetEvent()
	qev.Kind, qev.Query, qev.Payload = core.EvQuery, qid, p
	c.eng.Inject(c.asm.Lay.QO, qev)
	return c.awaitQuery(ctx, qid, ch)
}

// planCacheCap bounds the templates a plan cache keeps. A workload
// repeats a handful of statements; 64 leaves room for many more, and a
// template is a few kilobytes at most.
const planCacheCap = 64

// planCache maps a statement's exact text to its compiled template, so
// a statement that comes again is neither parsed nor planned: the query
// only binds its ids (plan.Template.Bind). It keeps at most planCacheCap
// templates and evicts the oldest first. Errors are not kept. Nothing
// writes the catalog after Open (tpcc.NewDatabase analyzes every table
// once), so a kept template is the plan compiling the text again would
// give, and the cache needs no statistics epoch; whatever re-analyzes a
// live cluster must empty the cache. The key is the exact text: two
// statements that differ only in a literal are two templates, since a
// literal can change the join order estimateRows picks.
type planCache struct {
	mu     sync.Mutex
	byText map[string]*plan.Template
	order  []string // the kept texts, oldest at next once full
	next   int
	// compiles counts the statements compiled (the tests read it).
	compiles atomic.Int64
}

// template returns the template of text, parsing and compiling it on a
// miss.
func (pc *planCache) template(cat *storage.Catalog, text string) (*plan.Template, error) {
	pc.mu.Lock()
	t := pc.byText[text]
	pc.mu.Unlock()
	if t != nil {
		return t, nil
	}
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	pc.compiles.Add(1)
	if t, err = plan.Compile(cat, q); err != nil {
		return nil, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if kept := pc.byText[text]; kept != nil {
		return kept, nil // a concurrent miss kept it first
	}
	if pc.byText == nil {
		pc.byText = make(map[string]*plan.Template, planCacheCap)
	}
	if len(pc.order) < planCacheCap {
		pc.order = append(pc.order, text)
	} else {
		delete(pc.byText, pc.order[pc.next])
		pc.order[pc.next] = text
		pc.next = (pc.next + 1) % planCacheCap
	}
	pc.byText[text] = t
	return t, nil
}

// queryWait is one registered analytical query: the 1-buffered result
// channel (nil once the waiter abandoned) and the submission shard the
// query entered, released when the result arrives.
type queryWait struct {
	ch    chan *olap.QueryResult
	shard int32
}

// registerQueryID enters the submission plane (queries count toward the
// same sharded in-flight accounting as transactions under the shared
// query bit, which every drain gates) and registers the completion
// channel for qid.
func (c *Cluster) registerQueryID(ctx context.Context, qid core.QueryID, si int32) (chan *olap.QueryResult, error) {
	if si < 0 {
		si = c.shardIdx()
	}
	if _, err := c.enterAt(ctx, si, queryMask); err != nil {
		return nil, err
	}
	ch := make(chan *olap.QueryResult, 1)
	c.qMu.Lock()
	c.qWait[qid] = &queryWait{ch: ch, shard: si}
	c.qMu.Unlock()
	return ch, nil
}

// awaitQuery blocks for a registered query result, the context, or
// Close (which closes the channel).
func (c *Cluster) awaitQuery(ctx context.Context, qid core.QueryID, ch chan *olap.QueryResult) (*olap.QueryResult, error) {
	select {
	case res, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		if res == nil {
			// failQueries delivered a nil result: a member whose scans
			// this query depended on died mid-flight.
			return nil, ErrMemberDown
		}
		return res, nil
	case <-ctx.Done():
		// Abandon the wait: drop the channel so the eventual result is
		// discarded, but keep the registration — the query still runs,
		// and its completion must release the in-flight count.
		c.qMu.Lock()
		if qw := c.qWait[qid]; qw != nil {
			qw.ch = nil
		}
		c.qMu.Unlock()
		return nil, ctx.Err()
	}
}

// failQueries resolves every in-flight analytical query with
// ErrMemberDown (delivered as a nil result — see awaitQuery). Every
// query scans all partitions, so a member death strands every
// outstanding query's collector: failing them all is not conservative,
// it is exact. Late stragglers (results computed before the death
// raced here) find no registration and are discarded by onDone.
func (c *Cluster) failQueries() {
	c.qMu.Lock()
	for qid, qw := range c.qWait {
		delete(c.qWait, qid)
		if qw.ch != nil {
			qw.ch <- nil
		}
		c.exitShard(qw.shard, queryMask)
	}
	c.qMu.Unlock()
}

// failQuery resolves one analytical query with ErrMemberDown — invoked
// when a piece of its plan (a scan install, a stream batch) diverts to
// a dead peer, so the query can never complete. Idempotent: later
// diverted pieces of the same query find no registration.
func (c *Cluster) failQuery(qid core.QueryID) {
	c.qMu.Lock()
	qw := c.qWait[qid]
	delete(c.qWait, qid)
	c.qMu.Unlock()
	if qw == nil {
		return
	}
	if qw.ch != nil {
		qw.ch <- nil
	}
	c.exitShard(qw.shard, queryMask)
}

// onDone resolves waiting callers. It runs on AC goroutines and must
// never block. The transaction path is lock-free: the DoneInfo carries
// the submitter's *Future back as its client token, so resolution is a
// CAS on the future plus one atomic shard release.
func (c *Cluster) onDone(ev *core.Event) {
	switch p := ev.Payload.(type) {
	case *oltp.DoneInfo:
		committed := p.Committed
		failure := p.Err
		f, _ := p.Client.(*Future)
		oltp.FreeDoneInfo(p)
		if f == nil {
			// Every public submission carries its future; a completion
			// without one is a lost or duplicated resolution.
			c.unmatchedDone.Add(1)
			return
		}
		// Read the shard and mask before resolving: resolve may recycle
		// the future into the pool, where another session can claim it.
		si, mask := f.shard, f.mask
		f.err = failure
		f.resolve(committed)
		c.exitShard(si, mask)
	case *olap.QueryResult:
		c.qMu.Lock()
		qw := c.qWait[p.Query]
		delete(c.qWait, p.Query)
		c.qMu.Unlock()
		if qw == nil {
			c.unmatchedDone.Add(1)
			freeResult(p)
			return
		}
		if qw.ch != nil {
			qw.ch <- p
		} else {
			// The waiter abandoned the query (context canceled): nobody
			// will ever iterate this result, so recycle its batches here.
			freeResult(p)
		}
		c.exitShard(qw.shard, queryMask)
		if c.asm.Ctrl != nil && !c.growAsked.Load() {
			// Feed analytical activity into the signal stream so the
			// controller can react with elasticity (a one-shot
			// trigger — once growth is requested, stop reporting).
			sig := core.GetEvent()
			sig.Kind = core.EvSignal
			sig.Payload = &oltp.Report{
				At: sim.Time(time.Since(c.start).Nanoseconds()), Queries: 1,
			}
			c.eng.Inject(c.asm.Lay.Seq, sig)
		}
	case *adapt.Decision:
		if p.Grow {
			c.growAsked.Store(true)
		}
		// Applied off the AC goroutine: applying drains in-flight
		// work, which needs the ACs to keep running.
		c.mu.Lock()
		c.decQ = append(c.decQ, p)
		c.mu.Unlock()
		select {
		case c.decKick <- struct{}{}:
		default: // applier already kicked; it drains the whole queue
		}
	}
}

// AddServer grows the cluster by one server (elasticity, §5) and returns
// how many ACs it added: cores of them, or none when cores < 1. On a
// self-driving cluster the new ACs also join the controller's placement
// pool, so AutoRebalance can migrate hot partitions onto the fresh
// hardware.
func (c *Cluster) AddServer(cores int) int {
	if cores < 1 {
		return 0
	}
	ids := c.eng.GrowServer(cores, c.asm.SetupAC)
	if len(ids) > 0 && c.ownerCands.Load() != nil {
		c.mu.Lock()
		grown := append(append([]core.ACID(nil), *c.ownerCands.Load()...), ids...)
		c.ownerCands.Store(&grown)
		c.mu.Unlock()
	}
	return len(ids)
}

// ownerIdx maps a warehouse to the placement-pool slot of its current
// owner — the indexing the controller's Move decisions speak. Runs on
// the controller's AC goroutine; lock-free (topology snapshot + atomic
// candidate list). -1 means the owner is outside the pool (topology in
// flux mid-grow); the controller skips that round.
func (c *Cluster) ownerIdx(w int) int {
	owner := c.topo.Owner(w)
	for i, id := range *c.ownerCands.Load() {
		if id == owner {
			return i
		}
	}
	return -1
}

// Rebalance performs a live elastic-repartitioning step: it migrates a
// warehouse's partition ownership to the least-loaded AC of the target
// server (excluding the current owner — on the owner's own server this
// is an intra-server move). The handoff uses the submission plane's one
// gate at partition granularity: only work touching the moving
// warehouse (and analytical queries, whose scans run at the owners) is
// briefly gated and drained; everything else keeps flowing. Once quiet,
// storage hands the partition off and the new topology snapshot is
// published atomically — in an architecture-less system state never
// moves, so the "migration" is one routing-table flip (§5). Canceling
// ctx abandons the move with ownership unchanged.
//
// With Config.AutoRebalance the controller owns placement and manual
// moves are rejected, mirroring SetPolicy under AutoAdapt.
func (c *Cluster) Rebalance(ctx context.Context, warehouse, server int) error {
	if c.autoRebalance {
		return errors.New("anydb: cluster is self-driving (Config.AutoRebalance); the controller owns placement")
	}
	if warehouse < 0 || warehouse >= c.cfg.Warehouses {
		return fmt.Errorf("anydb: warehouse %d out of range [0,%d)", warehouse, c.cfg.Warehouses)
	}
	if server < 0 || server >= c.topo.NumServers() {
		return fmt.Errorf("anydb: server %d out of range [0,%d)", server, c.topo.NumServers())
	}
	cur := c.topo.Owner(warehouse)
	dst := core.NoAC
	bestN := int(^uint(0) >> 1)
	for _, id := range c.topo.ACs(server) {
		if id == cur {
			continue
		}
		// Only ACs running a dispatcher can own partitions: under
		// shared-nothing the owner IS the transaction entry point. The
		// dedicated commit coordinator is the one AC without one.
		// Member-hosted ACs all run dispatchers in their own process
		// (they are not in the head's registry), so they are eligible.
		if !c.asm.Dispatches(id) && !c.isRemote(id) {
			continue
		}
		if n := len(c.topo.OwnedPartitions(id)); n < bestN {
			dst, bestN = id, n
		}
	}
	if dst == core.NoAC {
		return nil // no eligible AC besides the current owner
	}
	return c.moveWarehouse(ctx, warehouse, dst)
}

// Placement reports, per warehouse, the server currently hosting its
// partition-owner AC — the observable half of elastic repartitioning
// (watch it change under Rebalance/AutoRebalance). Lock-free snapshot
// read; safe to call concurrently with everything.
func (c *Cluster) Placement() []int {
	out := make([]int, c.cfg.Warehouses)
	for w := range out {
		out[w] = c.topo.ServerOf(c.topo.Owner(w))
	}
	return out
}

// moveWarehouse is the live SetOwner handoff shared by Rebalance, the
// controller's Move decisions and failover adoption: gate the
// warehouse's bit plus the query bit, drain the in-flight work under
// them, hand the storage partition to the new owner, publish the
// topology snapshot, reopen. Serialized with policy switches, Verify
// and Close under switchMu — but unlike those, it never stops traffic
// on other partitions.
func (c *Cluster) moveWarehouse(ctx context.Context, w int, dst core.ACID) error {
	c.switchMu.Lock()
	defer c.switchMu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	if c.topo.Owner(w) == dst {
		return nil
	}
	g, err := c.drainLocked(ctx, whBit(w)|queryMask)
	if err != nil {
		return err
	}
	if c.remoteACs != nil {
		// Cross-process leg: ship the partition's live rows between
		// processes (pull from a live remote source, push to a remote
		// destination) and broadcast the ownership flip, all inside the
		// same quiet window.
		err = c.migratePartition(w, dst)
	}
	if err == nil {
		// Quiet window: nothing in flight touches the partition, no
		// overlapping submission can slip past the gate. Flip the
		// routing — dispatchers and entry routing read the topology
		// snapshot, so the very next submission lands at the new owner.
		c.topo.SetOwner(w, dst)
	}
	c.reopenLocked(g, g.policy)
	return err
}

// AdaptationKind discriminates the architecture changes the
// self-driving controller applies.
type AdaptationKind int

const (
	// EvPolicySwitch is a routing-policy change (From → To).
	EvPolicySwitch AdaptationKind = iota
	// EvGrow is an elastic server addition for analytical load.
	EvGrow
	// EvRebalance is a live partition-ownership migration (Warehouse
	// moved to an AC on Server).
	EvRebalance
)

func (k AdaptationKind) String() string {
	switch k {
	case EvPolicySwitch:
		return "policy-switch"
	case EvGrow:
		return "grow"
	case EvRebalance:
		return "rebalance"
	}
	return fmt.Sprintf("AdaptationKind(%d)", int(k))
}

// AdaptationEvent records one decision the self-driving controller
// applied (Config.AutoAdapt / Config.AutoRebalance).
type AdaptationEvent struct {
	// At is the time since Open.
	At time.Duration
	// Kind says what changed: the routing policy, the server count, or
	// data placement.
	Kind AdaptationKind
	// From and To are the routing policies around the switch (equal
	// for grow and rebalance events).
	From, To Policy
	// Grew reports whether a server was added for analytical load.
	Grew bool
	// Warehouse and Server describe an EvRebalance migration: the
	// partition moved and the server now hosting its owner AC.
	Warehouse int
	Server    int
	// Probe marks switches the measured cost model made to measure an
	// unexplored policy (and the return switch ending the probe)
	// rather than because it already preferred the target.
	Probe bool
	// Regret is the measured model's cumulative normalized regret at
	// decision time — the trace that shows the self-driving loop
	// converging (flat = converged on the best-known arm per phase).
	Regret float64
	// Reason summarizes the window signals behind the decision.
	Reason string
}

// AdaptationLog returns the architecture changes the self-driving
// controller has applied so far (empty without Config.AutoAdapt).
func (c *Cluster) AdaptationLog() []AdaptationEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]AdaptationEvent, len(c.adaptLog))
	copy(out, c.adaptLog)
	return out
}

// eventSub is one Events subscription.
type eventSub struct {
	ctx context.Context
	ch  chan AdaptationEvent
}

// Events subscribes to adaptation events: every architecture change the
// self-driving controller applies is delivered on the returned channel
// as it happens, in order. The channel is buffered; a subscriber that
// falls behind misses events rather than stalling adaptation (use
// AdaptationLog for the complete history). Ending ctx detaches the
// subscription (observed at the next publish); Close closes all
// remaining channels. On a cluster without Config.AutoAdapt the channel
// never delivers and is closed on Close.
func (c *Cluster) Events(ctx context.Context) <-chan AdaptationEvent {
	ch := make(chan AdaptationEvent, 16)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() || ctx.Err() != nil {
		close(ch)
		return ch
	}
	c.subs = append(c.subs, eventSub{ctx: ctx, ch: ch})
	return ch
}

// runApplier serializes controller decisions: each one drains in-flight
// work, reroutes, and/or grows a server, then is recorded in the log.
func (c *Cluster) runApplier() {
	defer c.applierWG.Done()
	for range c.decKick {
		c.drainDecisions()
	}
	c.drainDecisions() // decisions enqueued after the final kick
}

func (c *Cluster) drainDecisions() {
	for {
		c.mu.Lock()
		if len(c.decQ) == 0 {
			c.mu.Unlock()
			return
		}
		d := c.decQ[0]
		c.decQ = c.decQ[1:]
		c.mu.Unlock()
		c.applyDecision(d)
	}
}

func (c *Cluster) applyDecision(d *adapt.Decision) {
	if c.closed.Load() {
		return
	}
	ev := AdaptationEvent{
		At:   time.Since(c.start),
		From: Policy(d.From), To: Policy(d.To),
		Grew: d.Grow, Probe: d.Probe, Regret: d.Regret, Reason: d.Reason,
	}
	applied := false
	if d.Grow {
		// Fresh compute for analytics: OpenOrders places joins on the
		// newest server, so the very next query benefits. Growth can
		// be refused when Close races us — log only what happened.
		ev.Kind = EvGrow
		ev.Grew = c.AddServer(c.cores) > 0
		applied = ev.Grew
	}
	if d.Move != nil {
		// Elastic repartitioning: map the controller's owner slot to
		// its AC and perform the live handoff. A slot past the pool
		// (racing a concurrent grow) or a failed move is skipped; the
		// controller re-evaluates from ground truth next window.
		cands := *c.ownerCands.Load()
		if d.Move.ToOwner >= 0 && d.Move.ToOwner < len(cands) {
			dst := cands[d.Move.ToOwner]
			if err := c.moveWarehouse(context.Background(), d.Move.Warehouse, dst); err == nil {
				ev.Kind = EvRebalance
				ev.Warehouse = d.Move.Warehouse
				ev.Server = c.topo.ServerOf(dst)
				applied = true
			}
		}
	}
	if d.To != d.From {
		if err := c.setPolicy(context.Background(), Policy(d.To)); err != nil {
			return // closed mid-switch; nothing to record
		}
		ev.Kind = EvPolicySwitch
		applied = true
	}
	if !applied {
		return // nothing was applied
	}
	c.mu.Lock()
	c.adaptLog = append(c.adaptLog, ev)
	// Reap subscribers whose context ended; only the applier goroutine
	// publishes or closes subscriber channels, so this is race-free.
	live := c.subs[:0]
	var dead []chan AdaptationEvent
	for _, s := range c.subs {
		if s.ctx.Err() != nil {
			dead = append(dead, s.ch)
			continue
		}
		live = append(live, s)
	}
	c.subs = live
	subs := append([]eventSub(nil), live...)
	c.mu.Unlock()
	for _, ch := range dead {
		close(ch)
	}
	for _, s := range subs {
		select {
		case s.ch <- ev:
		default: // slow subscriber: drop rather than stall adaptation
		}
	}
}

// Verify checks the TPC-C consistency conditions over the current state.
// It quiesces the cluster first — a drain of every bit, exactly like a
// policy switch: submissions arriving mid-verify briefly gate,
// in-flight work completes, the check runs over a stable snapshot, and
// the plane reopens under the unchanged policy. Concurrent with Close
// it waits for Close's own final drain instead (the engine is stopped,
// so the read is equally stable).
func (c *Cluster) Verify() error {
	c.switchMu.Lock()
	if !c.closed.Load() {
		if g, err := c.drainLocked(context.Background(), c.allMask()); err == nil {
			// On a multi-process cluster the check runs against the head
			// database, so remote-owned partitions come home first.
			verr := c.pullRemotePartitions()
			if verr == nil {
				_, verr = tpcc.Verify(c.db, c.cfg)
			}
			c.reopenLocked(g, g.policy)
			c.switchMu.Unlock()
			return verr
		}
		// Close raced the drain and owns the plane now; fall through.
	}
	c.switchMu.Unlock()
	<-c.closeDrained
	if c.remoteACs != nil {
		// Close pulls the remote-owned partitions home after its final
		// drain; wait for the full teardown so the head copy is complete.
		<-c.closeDone
	}
	_, err := tpcc.Verify(c.db, c.cfg)
	return err
}

// Stats reports cluster-level counters.
type Stats struct {
	Servers, ACs int
	Warehouses   int
	// UnmatchedDone counts transaction completions that found no
	// waiting caller; nonzero means a transaction was resolved twice.
	UnmatchedDone int64
	// WALRecords and WALSyncs count the command records made durable
	// since Open and the fsyncs that took; their ratio is the realized
	// group-commit size. Both stay 0 with Durability Off.
	WALRecords, WALSyncs uint64
}

// Stats returns a snapshot.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Servers:       c.topo.NumServers(),
		ACs:           c.topo.NumACs(),
		Warehouses:    c.cfg.Warehouses,
		UnmatchedDone: c.unmatchedDone.Load(),
	}
	if c.walLog != nil {
		st.WALRecords, st.WALSyncs = c.walLog.Stats()
	}
	return st
}

// Close stops all AC goroutines. It closes the submission plane (every
// gated or future entry observes ErrClosed), waits for all in-flight
// transactions and analytical queries to drain — so no work is ever cut
// off mid-flight and the database is left consistent — then stops the
// engine and tears down subscriptions. Concurrent and repeated calls
// wait for the teardown to finish.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		<-c.closeDone
		return
	}
	// Release every parked submitter and abort any in-progress drain
	// (it observes closedCh, returns ErrClosed, and leaves its gate up
	// for us), then gate every bit for good.
	close(c.closedCh)
	c.switchMu.Lock()
	all := c.allMask()
	c.plane.Store(&submitGate{mask: all})
	for c.inflightOn(all) != 0 {
		<-c.drainWake
	}
	c.switchMu.Unlock()
	close(c.closeDrained)
	if c.remoteACs != nil {
		// Bring every remote-owned partition home — the head database is
		// the complete post-run state (Verify after Close reads it) —
		// then dismiss the members; each stops its engine and closes its
		// connection.
		_ = c.pullRemotePartitions()
		for _, m := range c.peers {
			_ = m.peer.WriteControl(&transport.Bye{})
		}
	}
	c.eng.Stop()
	c.asm.Release()
	if c.remoteACs != nil {
		// Stop closed the remote-AC outboxes, so the router drainers are
		// exiting; wait for them, then drop the connections and the
		// head-side serve loops.
		for _, m := range c.peers {
			m.peer.WaitDrainers()
			m.peer.Close()
		}
		c.ln.Close()
		c.serveWG.Wait()
	}
	// The dispatcher goroutines are gone, so no appends are in flight:
	// stopping the log writer and closing the device is race-free. The
	// drain above resolved every admitted transaction, which implies its
	// record was synced, so nothing acknowledged is lost here.
	c.closeWAL()
	// The drain above resolved every transaction and delivered every
	// query result, so the wait table is empty unless something slipped
	// past accounting; closing leftovers (race-free now — all AC
	// goroutines are gone) unblocks their callers with ErrClosed.
	c.qMu.Lock()
	for qid, qw := range c.qWait {
		delete(c.qWait, qid)
		if qw.ch != nil {
			close(qw.ch)
		}
	}
	c.qMu.Unlock()
	if c.decKick != nil {
		// No more decisions can arrive either; drain the applier.
		close(c.decKick)
		c.applierWG.Wait()
	}
	// The applier is gone (or never existed): nobody can publish another
	// adaptation event, so closing the subscriber channels is race-free.
	c.mu.Lock()
	subs := c.subs
	c.subs = nil
	c.mu.Unlock()
	for _, s := range subs {
		close(s.ch)
	}
	close(c.closeDone)
}
