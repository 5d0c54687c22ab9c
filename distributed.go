package anydb

// Head side of the multi-process deployment (Config.Listen +
// Config.RemoteServers): member join handshake, the router goroutines
// that drain remote-AC outboxes onto the peer connections, the relay of
// inbound wire messages into the local engine, and the partition
// migration RPCs that back cross-process Rebalance/Verify/Close. The
// member side lives in node.go (ServeNode).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"anydb/internal/core"
	"anydb/internal/oltp"
	"anydb/internal/transport"
)

// member is one joined member process: its connection and the topology
// server slot whose ACs it hosts.
type member struct {
	peer   *transport.Peer
	server int
	// down latches once the head gives up on the member (grace expired
	// without a rejoin): its partitions were pulled home and every
	// in-flight token against it resolved with ErrMemberDown.
	down atomic.Bool
	// rejoinCh hands a freshly redialed connection from the rejoin
	// accept loop to the member's serve goroutine, which splices it in.
	rejoinCh chan net.Conn
}

// joinTimeout bounds how long Open waits for all members to dial in;
// rpcTimeout bounds one partition-migration round trip.
const (
	joinTimeout = 60 * time.Second
	rpcTimeout  = 30 * time.Second
)

// addRemoteServers validates the distributed config, advertises the
// member servers in the topology and opens the listener — called from
// Open before partition owners are assigned, so members can own
// partitions from the start.
func (c *Cluster) addRemoteServers(cfg Config) ([]core.ACID, error) {
	if cfg.Listen == "" {
		return nil, errors.New("anydb: Config.RemoteServers requires Config.Listen")
	}
	if cfg.AutoAdapt || cfg.AutoRebalance {
		return nil, errors.New("anydb: AutoAdapt/AutoRebalance are not supported on a multi-process cluster")
	}
	var remote []core.ACID
	for i := 0; i < cfg.RemoteServers; i++ {
		remote = append(remote, c.topo.AddServer(cfg.CoresPerServer)...)
	}
	c.remoteACs = make([]bool, c.topo.NumACs())
	for _, id := range remote {
		c.remoteACs[id] = true
	}
	c.tokens = transport.NewTokenTable()
	c.rpcWait = make(map[uint64]chan any)
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	c.ln = ln
	return remote, nil
}

// isRemote reports whether an AC is hosted by a member process.
func (c *Cluster) isRemote(id core.ACID) bool {
	return c.remoteACs != nil && id >= 0 && int(id) < len(c.remoteACs) && c.remoteACs[id]
}

// ListenAddr returns the address the head is accepting members on
// (useful with a ":0" Listen config), or "" on a purely local cluster.
func (c *Cluster) ListenAddr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// acceptMembers completes Open on a distributed cluster: accept each
// member, hand it its server slot and the deterministic rebuild recipe
// (Welcome), register router drainers for its ACs, wait until it is
// Ready, then start the inbound serve loops. Members join one at a
// time in server order.
func (c *Cluster) acceptMembers(cfg Config) error {
	owners := make([]int, c.cfg.Warehouses)
	for w := range owners {
		owners[w] = int(c.topo.Owner(w))
	}
	deadline := time.Now().Add(joinTimeout)
	err := func() error {
		for i := 0; i < cfg.RemoteServers; i++ {
			if tl, ok := c.ln.(*net.TCPListener); ok {
				tl.SetDeadline(deadline)
			}
			conn, err := c.ln.Accept()
			if err != nil {
				return fmt.Errorf("anydb: waiting for member %d/%d: %w", i+1, cfg.RemoteServers, err)
			}
			peer := transport.NewPeer(conn, c.tokens)
			hello, err := peer.ReadControl()
			if err != nil {
				peer.Close()
				return fmt.Errorf("anydb: member handshake: %w", err)
			}
			if h, ok := hello.(*transport.Hello); !ok || h.Proto != transport.ProtoVersion {
				peer.Close()
				return fmt.Errorf("anydb: member handshake: unexpected %#v", hello)
			}
			server := cfg.Servers + i
			peer.SetOwner(server)
			peer.OnDead = c.deadMsg
			if err := peer.WriteControl(&transport.Welcome{
				Proto: transport.ProtoVersion, Server: server,
				Servers: cfg.Servers + cfg.RemoteServers, Cores: cfg.CoresPerServer,
				TC: c.cfg, Owners: owners,
				HeartbeatNs: c.heartbeat.Nanoseconds(),
			}); err != nil {
				peer.Close()
				return err
			}
			// The member's ACs get engine outboxes now: anything routed at
			// them buffers until the drainers flush it over the wire.
			for _, id := range c.topo.ACs(server) {
				peer.StartDrainer(id, c.eng.RegisterRemote(id))
			}
			ready, err := peer.ReadControl()
			if err != nil {
				peer.Close()
				return fmt.Errorf("anydb: member %d ready: %w", server, err)
			}
			if _, ok := ready.(*transport.Ready); !ok {
				peer.Close()
				return fmt.Errorf("anydb: member %d: expected Ready, got %#v", server, ready)
			}
			c.peers = append(c.peers, &member{
				peer: peer, server: server,
				rejoinCh: make(chan net.Conn, 1),
			})
		}
		return nil
	}()
	if err != nil {
		for _, m := range c.peers {
			m.peer.Close()
		}
		return err
	}
	if tl, ok := c.ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Time{})
	}
	for _, m := range c.peers {
		if c.heartbeat > 0 {
			// Arm the read watchdog only now, after every member joined:
			// during the serial join a member can sit frame-less for as
			// long as its siblings take to populate.
			m.peer.SetReadTimeout(3 * c.heartbeat)
			c.serveWG.Add(1)
			go c.pingMember(m)
		}
		c.serveWG.Add(1)
		go c.serveMember(m)
	}
	// Catch members redialing after a connection break.
	c.serveWG.Add(1)
	go c.acceptRejoins()
	if c.walApplied > 0 {
		// Recovery replayed logged transactions into the head database
		// after the members captured their deterministic seed, so their
		// copies of the partitions they own are stale: push them fresh
		// snapshots before any traffic flows.
		if err := c.pushReplayedPartitions(); err != nil {
			return err
		}
	}
	return nil
}

// pushReplayedPartitions installs the head's post-recovery copy of
// every member-owned partition on its owner. Runs right after join,
// before Open returns — the cluster is quiet.
func (c *Cluster) pushReplayedPartitions() error {
	for w := 0; w < c.cfg.Warehouses; w++ {
		owner := c.topo.Owner(w)
		if !c.isRemote(owner) {
			continue
		}
		if err := c.pushPartition(owner, w); err != nil {
			return err
		}
	}
	return nil
}

// pingMember keeps the liveness heartbeat flowing toward one member.
// Writes to a dead peer fail fast and are ignored; after a rejoin the
// pings land on the spliced connection automatically.
func (c *Cluster) pingMember(m *member) {
	defer c.serveWG.Done()
	t := time.NewTicker(c.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = m.peer.WriteControl(&transport.Ping{})
		case <-c.closedCh:
			return
		}
	}
}

// serveMember runs one member's inbound serve loop, restarting it
// across connection breaks. A break immediately fails everything in
// flight against the member (segments already sent may or may not have
// arrived — the only honest answer is a typed error), then the member
// gets MemberGrace to redial; a rejoin splices the fresh connection and
// resumes, expiry declares it dead and pulls its partitions home.
func (c *Cluster) serveMember(m *member) {
	defer c.serveWG.Done()
	for {
		_ = m.peer.Serve(c.remoteMsg, c.remoteCtrl)
		if c.closed.Load() {
			return
		}
		c.failTransit(m)
		select {
		case conn := <-m.rejoinCh:
			// Commit to the rejoin: RejoinOK must be the first frame on
			// the new connection (the member reads it before resuming),
			// so write it before splicing — drainers resume only after
			// SetConn clears the dead mark.
			tmp := transport.NewPeer(conn, nil)
			if err := tmp.WriteControl(&transport.RejoinOK{}); err != nil {
				conn.Close()
				continue // still inside the grace of the next break
			}
			m.peer.SetConn(conn)
			continue
		case <-time.After(c.memberGrace):
		case <-c.closedCh:
			return
		}
		c.failMember(m)
		// A redial racing the expiry may have parked a connection;
		// nobody will splice it now.
		select {
		case conn := <-m.rejoinCh:
			conn.Close()
		default:
		}
		return
	}
}

// acceptRejoins accepts redials from disconnected members for the life
// of the cluster and hands each to its member's serve goroutine. Exits
// when Close shuts the listener.
func (c *Cluster) acceptRejoins() {
	defer c.serveWG.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			tmp := transport.NewPeer(conn, nil)
			conn.SetReadDeadline(time.Now().Add(joinTimeout))
			hello, err := tmp.ReadControl()
			if err != nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			h, ok := hello.(*transport.Hello)
			if !ok || h.Proto != transport.ProtoVersion || !h.Rejoin {
				conn.Close()
				return
			}
			for _, m := range c.peers {
				if m.server == h.Server && !m.down.Load() {
					select {
					case m.rejoinCh <- conn:
						return
					default: // a previous redial is already parked
					}
					break
				}
			}
			conn.Close()
		}(conn)
	}
}

// failTransit resolves everything in flight against a disconnected
// member with ErrMemberDown: future traffic diverts to deadMsg, every
// outstanding client token against it converts to a synthetic failure
// ack, and in-flight analytical queries (whose scans spanned it) fail.
// The member itself may still rejoin for future traffic.
func (c *Cluster) failTransit(m *member) {
	// Order matters: MarkDead first (under the write lock, so no token
	// can be issued toward the member afterwards), then sweep — the
	// sweep is complete by construction.
	m.peer.MarkDead()
	for _, ft := range c.tokens.FailOwner(m.server) {
		c.failToken(ft)
	}
	c.failQueries()
}

// failMember declares a member dead: partitions it owned are pulled
// home to the head's executors so subsequent submissions and queries
// succeed. The head's copy is the best surviving replica — writes the
// member applied after its last pull are lost (k-way replication is the
// ROADMAP follow-up; a dead member's recent effects are not recoverable
// from a single copy).
func (c *Cluster) failMember(m *member) {
	if !m.down.CompareAndSwap(false, true) {
		return
	}
	c.adoptPartitions(m)
}

// failToken converts one swept client token into a synthetic failure
// ack injected at the transaction's coordinator, exactly as the dead
// executor's real ack would have arrived. The coordinator's pending
// count converges (live members' real acks + these) and the submitter's
// future resolves once, with ErrMemberDown.
func (c *Cluster) failToken(ft transport.FailedToken) {
	if !ft.HasAck {
		// Not a segment token — nothing on the ack plane references it.
		return
	}
	ack := oltp.GetAck()
	ack.Total, ack.Home, ack.Client, ack.Err = ft.Ack.Total, ft.Ack.Home, ft.Value, ErrMemberDown
	ev := core.GetEvent()
	ev.Kind, ev.Txn, ev.Payload = core.EvAck, ft.Ack.ID, ack
	c.eng.Inject(ft.Ack.Coord, ev)
}

// deadMsg consumes a message diverted from a dead peer's write path
// (transport.Peer.OnDead). A diverted segment never reached the
// encoder, so no client token exists for it and the FailOwner sweep
// cannot cover it — it becomes a synthetic failure ack right here.
// Everything else just returns to the pools.
func (c *Cluster) deadMsg(msg any) {
	if dm, ok := msg.(*core.DataMsg); ok {
		// A stream batch toward the dead member: its query can never
		// complete — fail it now (queries submitted inside the grace
		// window reach here; failTransit's sweep only saw the ones in
		// flight at the break).
		qid := dm.Query
		transport.FreeLocal(msg)
		c.failQuery(qid)
		return
	}
	ev, ok := msg.(*core.Event)
	if !ok {
		transport.FreeLocal(msg)
		return
	}
	if ev.Kind != core.EvSegment {
		qid := ev.Query
		transport.FreeLocal(msg)
		if qid != 0 {
			// A query-plan event (scan install, collector op, ...)
			// toward the dead member: fail the whole query.
			c.failQuery(qid)
		}
		return
	}
	seg, ok := ev.Payload.(*oltp.Segment)
	if !ok {
		transport.FreeLocal(msg)
		return
	}
	ack := oltp.GetAck()
	ack.Total, ack.Client, ack.Err = seg.Total, seg.Client, ErrMemberDown
	if len(seg.Ops) > 0 {
		ack.Home = seg.Ops[0].Warehouse()
	}
	ackEv := core.GetEvent()
	ackEv.Kind, ackEv.Txn, ackEv.Payload = core.EvAck, ev.Txn, ack
	coord := seg.Coord
	ev.Payload = nil
	oltp.FreeSegment(seg)
	core.FreeEvent(ev)
	c.eng.Inject(coord, ackEv)
}

// adoptPartitions pulls every partition the dead member owned home to
// the head's executors, one moveWarehouse handoff per partition: gate
// overlapping submissions, wait for the in-flight count on the
// warehouse to hit zero (failTransit already resolved everything that
// involved the dead member, so it drains), flip ownership and tell the
// connected members. The head's copy becomes live — migratePartition
// pulls nothing from a member marked down.
func (c *Cluster) adoptPartitions(m *member) {
	execs := c.asm.Lay.Execs
	for w := 0; w < c.cfg.Warehouses; w++ {
		if c.topo.ServerOf(c.topo.Owner(w)) == m.server {
			// Nobody waits on adoption: only Close racing it fails the
			// move, and then nothing routes again anyway.
			_ = c.moveWarehouse(context.Background(), w, execs[w%len(execs)])
		}
	}
}

// remoteMsg relays one decoded inbound message into the local engine.
// ClientAC-destined events resolve through the client callback exactly
// like a local completion; everything else lands in the destination's
// mailbox — which, for a message between two members, is another
// remote-AC outbox, so the head transparently relays member→member
// traffic.
func (c *Cluster) remoteMsg(dst core.ACID, m any) {
	switch v := m.(type) {
	case *core.Event:
		if v.Kind == core.EvAck {
			if a, ok := v.Payload.(*oltp.Ack); ok {
				if _, stale := a.Client.(transport.Token); stale {
					// The ack's client token was already retired: its
					// transaction was force-completed by a FailOwner
					// sweep, and this is the real executor's ack
					// arriving late (a member that rejoined flushes
					// its pre-break outbox). Feeding it onward would
					// re-create pending state for a finished
					// transaction.
					v.Payload = nil
					oltp.FreeAck(a)
					core.FreeEvent(v)
					return
				}
			}
		}
		if dst == core.ClientAC {
			c.eng.InjectClient(v)
			return
		}
		c.eng.Inject(dst, v)
	case *core.DataMsg:
		c.eng.InjectData(dst, v)
	}
}

// remoteCtrl handles inbound control messages on the head: the only
// ones members originate are partition-migration replies.
func (c *Cluster) remoteCtrl(v any) error {
	switch msg := v.(type) {
	case *transport.PartSnap:
		c.rpcDeliver(msg.Ref, msg)
	case *transport.PartAck:
		c.rpcDeliver(msg.Ref, msg)
	case *transport.Ping:
		// Liveness heartbeat: arrival alone fed the read watchdog.
	}
	return nil
}

func (c *Cluster) rpcDeliver(ref uint64, v any) {
	c.rpcMu.Lock()
	ch := c.rpcWait[ref]
	delete(c.rpcWait, ref)
	c.rpcMu.Unlock()
	if ch != nil {
		ch <- v
	}
}

// rpc sends one control request to a member and blocks for its reply
// (matched by Ref).
func (c *Cluster) rpc(m *member, build func(ref uint64) any) (any, error) {
	ref := c.rpcSeq.Add(1)
	ch := make(chan any, 1)
	c.rpcMu.Lock()
	c.rpcWait[ref] = ch
	c.rpcMu.Unlock()
	if err := m.peer.WriteControl(build(ref)); err != nil {
		c.rpcMu.Lock()
		delete(c.rpcWait, ref)
		c.rpcMu.Unlock()
		return nil, err
	}
	select {
	case v := <-ch:
		return v, nil
	case <-time.After(rpcTimeout):
		c.rpcMu.Lock()
		delete(c.rpcWait, ref)
		c.rpcMu.Unlock()
		return nil, fmt.Errorf("anydb: member %d: partition rpc timed out", m.server)
	}
}

// memberOf resolves the member connection hosting an AC.
func (c *Cluster) memberOf(id core.ACID) *member {
	s := c.topo.ServerOf(id)
	for _, m := range c.peers {
		if m.server == s {
			return m
		}
	}
	return nil
}

// pullPartition refreshes the head's copy of one remote-owned partition.
func (c *Cluster) pullPartition(m *member, w int) error {
	v, err := c.rpc(m, func(ref uint64) any { return &transport.PartReq{Ref: ref, W: w} })
	if err != nil {
		return err
	}
	snap, ok := v.(*transport.PartSnap)
	if !ok {
		return fmt.Errorf("anydb: partition %d: unexpected rpc reply %T", w, v)
	}
	return transport.InstallPartition(c.db, w, snap.Tables)
}

// pushPartition installs the head's copy of partition w on the member
// hosting AC owner.
func (c *Cluster) pushPartition(owner core.ACID, w int) error {
	m := c.memberOf(owner)
	if m == nil {
		return fmt.Errorf("anydb: no member connection for AC %d", owner)
	}
	tables := transport.SnapshotPartition(c.db, w)
	v, err := c.rpc(m, func(ref uint64) any { return &transport.PartInstall{Ref: ref, W: w, Tables: tables} })
	if err != nil {
		return err
	}
	ack, ok := v.(*transport.PartAck)
	if !ok {
		return fmt.Errorf("anydb: partition %d: unexpected rpc reply %T", w, v)
	}
	if ack.Err != "" {
		return fmt.Errorf("anydb: partition %d install on member %d: %s", w, m.server, ack.Err)
	}
	return nil
}

// migratePartition is the cross-process leg of moveWarehouse, running
// inside the drained quiet window: pull the live rows home when the
// source owner is a live member, push the fresh copy out when the
// destination is remote, then broadcast the ownership flip so each
// connected member's topology snapshot reroutes identically. A member
// marked down is not pulled from (the head's copy is the surviving
// replica). The caller flips the head's own topology afterwards.
func (c *Cluster) migratePartition(w int, dst core.ACID) error {
	if src := c.topo.Owner(w); c.isRemote(src) {
		m := c.memberOf(src)
		if m == nil {
			return fmt.Errorf("anydb: no member connection for AC %d", src)
		}
		if !m.down.Load() {
			if err := c.pullPartition(m, w); err != nil {
				return err
			}
		}
	}
	if c.isRemote(dst) {
		if err := c.pushPartition(dst, w); err != nil {
			return err
		}
	}
	for _, m := range c.peers {
		// A member whose connection is broken (down, or inside its
		// grace window) misses the update. Nothing on a member reads
		// partition owners today: raw transactions enter at the head's
		// dispatcher, and queries are planned on the head.
		_ = m.peer.WriteControl(&transport.OwnerUpdate{W: w, AC: int(dst)})
	}
	return nil
}

// pullRemotePartitions brings every remote-owned partition's live rows
// into the head database — Verify and Close check TPC-C consistency
// against the head's copy. Caller holds the drained quiet plane.
func (c *Cluster) pullRemotePartitions() error {
	if c.remoteACs == nil {
		return nil
	}
	for w := 0; w < c.cfg.Warehouses; w++ {
		owner := c.topo.Owner(w)
		if !c.isRemote(owner) {
			continue
		}
		m := c.memberOf(owner)
		if m == nil {
			return fmt.Errorf("anydb: no member connection for AC %d", owner)
		}
		if err := c.pullPartition(m, w); err != nil {
			return err
		}
	}
	return nil
}
