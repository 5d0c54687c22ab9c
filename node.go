package anydb

// Member side of the multi-process deployment: ServeNode turns the
// calling process into one server of a head cluster opened with
// Config.Listen/RemoteServers. The member rebuilds the identical
// database and topology deterministically from the Welcome (no data
// ships at join time), runs ONLY its own server's ACs, and routes every
// other AC through transport outboxes drained onto the head connection
// — a star: member→member traffic relays through the head.

import (
	"context"
	"fmt"
	"net"
	"time"

	"anydb/internal/core"
	"anydb/internal/route"
	"anydb/internal/tpcc"
	"anydb/internal/transport"
)

// dialRetry paces connection attempts while the head is still coming
// up; dialWindow bounds the total wait. rejoinWindow bounds how long a
// disconnected member keeps redialing (backoff 50ms doubling to 1s)
// before giving up — it should comfortably exceed the head's
// MemberGrace, or a transient drop turns into a permanent eviction.
const (
	dialRetry    = 100 * time.Millisecond
	dialWindow   = 30 * time.Second
	rejoinWindow = 15 * time.Second
)

// ServeNode joins the head listening on addr as a member process and
// serves its share of the cluster's ACs until the head dismisses it
// (clean nil return), the connection drops, or ctx ends. It dials with
// retry, so members may start before the head listens. cmd/anydbd is a
// thin wrapper around this function.
func ServeNode(ctx context.Context, addr string) error {
	conn, err := dialHead(ctx, addr)
	if err != nil {
		return err
	}
	peer := transport.NewPeer(conn, nil)
	stop := context.AfterFunc(ctx, func() { peer.Close() })
	defer stop()

	if err := peer.WriteControl(&transport.Hello{Proto: transport.ProtoVersion}); err != nil {
		peer.Close()
		return err
	}
	wmsg, err := peer.ReadControl()
	if err != nil {
		peer.Close()
		return fmt.Errorf("anydb: handshake: %w", err)
	}
	w, ok := wmsg.(*transport.Welcome)
	if !ok || w.Proto != transport.ProtoVersion {
		peer.Close()
		return fmt.Errorf("anydb: handshake: unexpected %#v", wmsg)
	}

	// Rebuild the head's exact database and topology from the recipe:
	// population is deterministic in (config, seed), and the ownership
	// vector replays the head's SetOwner calls.
	db, _ := tpcc.NewDatabase(w.TC)
	topo := core.NewTopology(db)
	for s := 0; s < w.Servers; s++ {
		topo.AddServer(w.Cores)
	}
	for wh, ac := range w.Owners {
		topo.SetOwner(wh, core.ACID(ac))
	}
	local := make([]bool, topo.NumACs())
	for _, id := range topo.ACs(w.Server) {
		local[id] = true
	}

	// The member's ACs carry the same behavior set as the head's — among
	// it a dispatcher per AC, so the server can own partitions (under
	// shared-nothing the owner IS the entry point; the head redirects raw
	// transactions, but the role must exist for symmetry with local
	// owners). The assembly stays on SharedNothing with no controller and
	// no log: the self-driving loop and durability are the head's.
	asm := route.NewAssembly(db, topo)
	eng := core.NewEngineAt(topo, asm.SetupAC, func(id core.ACID) bool { return local[id] })
	// Completions surfacing here (query results, op-done notifications
	// from locally hosted operators) belong to the head's client: relay
	// them; the engine recycles the envelope when the callback returns.
	eng.SetClient(func(ev *core.Event) { _ = peer.ForwardClient(ev) })
	// Every non-local AC routes through one outbox drained to the head.
	for _, id := range topo.AllACs() {
		if !local[id] {
			peer.StartDrainer(id, eng.RegisterRemote(id))
		}
	}
	if err := peer.WriteControl(&transport.Ready{Server: w.Server}); err != nil {
		eng.Stop()
		peer.Close()
		return err
	}

	// Liveness: both sides Ping at the Welcome's cadence. The read
	// watchdog arms lazily on the first inbound Ping — the head starts
	// its heartbeats only once every member has joined, so arming
	// earlier would let a sibling's slow populate trip it.
	hb := time.Duration(w.HeartbeatNs)
	if hb > 0 {
		hbStop := make(chan struct{})
		defer close(hbStop)
		go func() {
			t := time.NewTicker(hb)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					_ = peer.WriteControl(&transport.Ping{})
				case <-hbStop:
					return
				}
			}
		}()
	}
	sawBye := false
	onMsg := func(dst core.ACID, m any) {
		switch v := m.(type) {
		case *core.Event:
			eng.Inject(dst, v)
		case *core.DataMsg:
			eng.InjectData(dst, v)
		}
	}
	onCtrl := func(v any) error {
		switch msg := v.(type) {
		case *transport.PartReq:
			// Inside the head's quiet window: nothing local touches
			// the partition. Barrier extends the executors' last
			// flush into a happens-before edge for these reads.
			peer.Barrier()
			return peer.WriteControl(&transport.PartSnap{
				Ref: msg.Ref, W: msg.W,
				Tables: transport.SnapshotPartition(db, msg.W),
			})
		case *transport.PartInstall:
			peer.Barrier()
			ack := &transport.PartAck{Ref: msg.Ref}
			if err := transport.InstallPartition(db, msg.W, msg.Tables); err != nil {
				ack.Err = err.Error()
			}
			return peer.WriteControl(ack)
		case *transport.OwnerUpdate:
			topo.SetOwner(msg.W, core.ACID(msg.AC))
		case *transport.Ping:
			if hb > 0 {
				// Same goroutine as the read loop, so no race.
				peer.SetReadTimeout(3 * hb)
			}
		case *transport.Bye:
			sawBye = true
			return transport.ErrBye
		}
		return nil
	}
	// Transport fault tolerance: a broken connection is not the end of
	// the member. Redial with backoff; if the head is still inside its
	// grace window it splices the fresh connection (RejoinOK) and the
	// serve loop resumes — work the break interrupted was failed with
	// typed errors on the head, future traffic flows normally.
	var serveErr error
	for {
		serveErr = peer.Serve(onMsg, onCtrl)
		if sawBye || ctx.Err() != nil {
			break
		}
		conn, err := redialRejoin(ctx, addr, w.Server)
		if err != nil {
			if serveErr == nil {
				serveErr = err
			}
			break
		}
		peer.SetConn(conn)
	}
	eng.Stop()
	peer.WaitDrainers()
	peer.Close()
	if serveErr == nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return serveErr
}

// redialRejoin re-establishes a member's head connection after a break:
// dial, Hello{Rejoin} with the member's assigned server slot, and wait
// for the head's RejoinOK (it only answers once its serve goroutine
// committed to the splice). The handshake peer reads exact frames — no
// buffered lookahead — so the raw connection can be spliced afterwards.
func redialRejoin(ctx context.Context, addr string, server int) (net.Conn, error) {
	backoff := 50 * time.Millisecond
	deadline := time.Now().Add(rejoinWindow)
	var lastErr error
	for {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		d := net.Dialer{Timeout: 2 * time.Second}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			tmp := transport.NewPeer(conn, nil)
			err = tmp.WriteControl(&transport.Hello{
				Proto: transport.ProtoVersion, Rejoin: true, Server: server,
			})
			if err == nil {
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				var v any
				if v, err = tmp.ReadControl(); err == nil {
					if _, ok := v.(*transport.RejoinOK); ok {
						conn.SetReadDeadline(time.Time{})
						return conn, nil
					}
					err = fmt.Errorf("anydb: rejoin: unexpected %#v", v)
				}
			}
			conn.Close()
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("anydb: rejoining head %s: %w", addr, lastErr)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

func dialHead(ctx context.Context, addr string) (net.Conn, error) {
	deadline := time.Now().Add(dialWindow)
	for {
		d := net.Dialer{Timeout: 2 * time.Second}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("anydb: dialing head %s: %w", addr, err)
		}
		time.Sleep(dialRetry)
	}
}
