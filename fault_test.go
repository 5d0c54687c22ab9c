package anydb_test

// Transport fault tolerance: member death and reconnection. A member
// process dying mid-load must not wedge the head — in-flight futures
// against it resolve with ErrMemberDown (typed, never hung), its
// partitions are pulled home through the submission gate, and subsequent
// submissions, sessions and queries succeed. A member whose CONNECTION
// drops (but whose process survives) redials within the grace window
// and resumes.
//
// No Verify and no pool-balance assertions after a member death: the
// member's un-replicated recent writes are lost with it by design
// (k-way replication is the ROADMAP follow-up), and messages in flight
// at the break are deliberately dropped.

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"anydb"
)

// faultCfg is smallDistCfg with failure detection fast enough for a
// test: 25ms heartbeats, 250ms rejoin grace.
func faultCfg(addr string) anydb.Config {
	cfg := smallDistCfg(addr)
	cfg.HeartbeatInterval = 25 * time.Millisecond
	cfg.MemberGrace = 250 * time.Millisecond
	return cfg
}

func TestMemberDeathFailover(t *testing.T) {
	addr := freeAddr(t)
	memberCtx, killMember := context.WithCancel(context.Background())
	defer killMember()
	nodeErr := make(chan error, 1)
	go func() { nodeErr <- anydb.ServeNode(memberCtx, addr) }()

	c, err := anydb.Open(faultCfg(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	memberOwned := -1
	for w, s := range c.Placement() {
		if s == 2 {
			memberOwned = w
			break
		}
	}
	if memberOwned < 0 {
		t.Fatalf("no member-owned partition in placement %v", c.Placement())
	}

	// A session pinned before the failure, used across it below.
	sess := c.Session()
	defer sess.Close()
	if committed, err := sess.Payment(anydb.Payment{
		Warehouse: memberOwned, District: 1, Customer: 1, Amount: 1,
	}); err != nil || !committed {
		t.Fatalf("pre-failure session payment: committed=%v err=%v", committed, err)
	}

	// The post-adoption query below runs once before the failure too, so
	// it comes back as a plan-cache hit: the hit must bind the compute
	// ACs live then, not the member's it was compiled beside.
	const districtCount = "SELECT COUNT(*) FROM district"
	var districts int64
	if err := c.QueryRow(ctx, districtCount).Scan(&districts); err != nil || districts != 8*2 {
		t.Fatalf("pre-failure query: %d districts, err=%v", districts, err)
	}

	// Put a pipelined burst in flight against member-owned partitions,
	// then kill the member process under it.
	var futs []*anydb.Future
	for i := 0; i < 64; i++ {
		f, err := c.SubmitPayment(ctx, anydb.Payment{
			Warehouse: memberOwned, District: 1 + i%2, Customer: 1 + i%20, Amount: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	killMember()
	select {
	case <-nodeErr:
	case <-time.After(10 * time.Second):
		t.Fatal("member did not exit after its context was canceled")
	}

	// Every in-flight future resolves — committed (acked before the
	// break) or ErrMemberDown — under a deadline, so a hang fails the
	// test rather than jamming it.
	waitCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	downErrs := 0
	for i, f := range futs {
		committed, err := f.Wait(waitCtx)
		switch {
		case err == nil:
		case errors.Is(err, anydb.ErrMemberDown):
			downErrs++
			if committed {
				t.Fatalf("future %d: committed=true with ErrMemberDown", i)
			}
		default:
			t.Fatalf("future %d: unexpected error %v", i, err)
		}
	}
	t.Logf("burst of %d: %d resolved ErrMemberDown", len(futs), downErrs)

	// The member process is gone, so a payment submitted now against
	// its partition MUST fail typed — ownership cannot have moved home
	// yet if the grace window is still open, and after adoption the
	// path below succeeds instead. Either way: never a hang, never an
	// untyped failure.
	f, err := c.SubmitPayment(ctx, anydb.Payment{
		Warehouse: memberOwned, District: 1, Customer: 1, Amount: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if committed, err := f.Wait(waitCtx); err != nil && !errors.Is(err, anydb.ErrMemberDown) {
		t.Fatalf("post-kill payment: unexpected error %v (committed=%v)", err, committed)
	}

	// The head declares the member dead after MemberGrace and adopts
	// its partitions; poll placement until no partition lives on
	// server 2.
	adoptDeadline := time.Now().Add(15 * time.Second)
	for {
		adopted := true
		for _, s := range c.Placement() {
			if s == 2 {
				adopted = false
			}
		}
		if adopted {
			break
		}
		if time.Now().After(adoptDeadline) {
			t.Fatalf("partitions still on dead member: placement %v", c.Placement())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Post-adoption: plain submissions, the pre-failure session (its
	// pinned shard re-enters via the parked path across the adoption
	// gate), and analytics all succeed on every warehouse.
	for w := 0; w < 8; w++ {
		if committed, err := c.Payment(anydb.Payment{
			Warehouse: w, District: 1, Customer: 2, Amount: 1,
		}); err != nil || !committed {
			t.Fatalf("post-adoption payment on w%d: committed=%v err=%v", w, committed, err)
		}
	}
	if committed, err := sess.Payment(anydb.Payment{
		Warehouse: memberOwned, District: 1, Customer: 1, Amount: 1,
	}); err != nil || !committed {
		t.Fatalf("post-adoption session payment: committed=%v err=%v", committed, err)
	}
	if err := c.QueryRow(ctx, districtCount).Scan(&districts); err != nil {
		t.Fatalf("post-adoption query: %v", err)
	}
	if districts != 8*2 {
		t.Fatalf("district count = %d, want 16", districts)
	}
}

// TestMemberDeathThenRebalance: once a dead member's partitions are
// home, live repartitioning keeps working — the handoff neither pulls
// from nor announces to the dead member. No traffic reaches the member
// before it dies, so the head's copy is complete and Verify must be
// clean.
func TestMemberDeathThenRebalance(t *testing.T) {
	addr := freeAddr(t)
	memberCtx, killMember := context.WithCancel(context.Background())
	defer killMember()
	nodeErr := make(chan error, 1)
	go func() { nodeErr <- anydb.ServeNode(memberCtx, addr) }()

	c, err := anydb.Open(faultCfg(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	killMember()
	select {
	case <-nodeErr:
	case <-time.After(10 * time.Second):
		t.Fatal("member did not exit after its context was canceled")
	}
	deadline := time.Now().Add(15 * time.Second)
	for slices.Contains(c.Placement(), 2) {
		if time.Now().After(deadline) {
			t.Fatalf("partitions still on dead member: placement %v", c.Placement())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Move a warehouse between the two head servers, then back.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const w = 0
	for range 2 {
		from := c.Placement()[w]
		to := 1 - from
		if err := c.Rebalance(ctx, w, to); err != nil {
			t.Fatalf("Rebalance(w%d, server %d) after member death: %v", w, to, err)
		}
		if got := c.Placement()[w]; got != to {
			t.Fatalf("w%d on server %d after Rebalance to %d", w, got, to)
		}
		if committed, err := c.Payment(anydb.Payment{
			Warehouse: w, District: 1, Customer: 1, Amount: 1,
		}); err != nil || !committed {
			t.Fatalf("payment after move: committed=%v err=%v", committed, err)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestMemberDeathWhileSiblingCutOff: one network fault breaks two
// members' connections — member B's process is gone, member A's link
// heals inside its grace window. B's adoption must not wait on A: its
// partitions come home while A is still cut off (A misses the
// ownership broadcast). After A rejoins, its partitions are still its
// own, and a payment spanning A's warehouse and one of B's adopted ones
// commits.
func TestMemberDeathWhileSiblingCutOff(t *testing.T) {
	addr := freeAddr(t)
	proxyA := newCutProxy(t, addr)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	ctxB, killB := context.WithCancel(context.Background())
	defer killB()
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() { errA <- anydb.ServeNode(ctxA, proxyA.Addr()) }()
	go func() {
		// Join after A, so A holds server slot 2 and B slot 3.
		<-proxyA.linked
		errB <- anydb.ServeNode(ctxB, addr)
	}()

	const grace = 2 * time.Second
	cfg := faultCfg(addr)
	// One warehouse per AC: four head executors, four ACs per member.
	cfg.Warehouses, cfg.RemoteServers = 12, 2
	cfg.MemberGrace = grace
	c, err := anydb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	aW, bW := slices.Index(c.Placement(), 2), slices.Index(c.Placement(), 3)
	if aW < 0 || bW < 0 {
		t.Fatalf("placement %v: each member must own a warehouse", c.Placement())
	}
	ctx := context.Background()
	pay := func(p anydb.Payment) (bool, error) {
		f, err := c.SubmitPayment(ctx, p)
		if err != nil {
			return false, err
		}
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		return f.Wait(wctx)
	}
	home := anydb.Payment{Warehouse: aW, District: 1, Customer: 1, Amount: 1}
	if committed, err := pay(home); err != nil || !committed {
		t.Fatalf("payment on member A: committed=%v err=%v", committed, err)
	}

	// B dies; halfway through its grace A's link is cut, so when B's
	// grace expires A is still inside its own.
	killB()
	select {
	case <-errB:
	case <-time.After(10 * time.Second):
		t.Fatal("member B did not exit after its context was canceled")
	}
	time.Sleep(grace / 2)
	proxyA.cut()
	deadline := time.Now().Add(3 * grace)
	for slices.Contains(c.Placement(), 3) {
		if time.Now().After(deadline) {
			t.Fatalf("B's partitions never came home while A was cut off: placement %v", c.Placement())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Placement()[aW]; got != 2 {
		t.Fatalf("w%d on server %d: A was declared down before its link healed", aW, got)
	}
	proxyA.heal()

	deadline = time.Now().Add(10 * time.Second)
	for {
		committed, err := pay(home)
		if err == nil && committed {
			break
		}
		if err != nil && !errors.Is(err, anydb.ErrMemberDown) {
			t.Fatalf("payment while A rejoins: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("member A never rejoined: committed=%v err=%v", committed, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := c.Placement()[aW]; got != 2 {
		t.Fatalf("w%d moved to server %d — A rejoined in its grace window", aW, got)
	}
	remote := home
	remote.CustomerWarehouse, remote.CustomerDistrict = bW, 1
	if committed, err := pay(remote); err != nil || !committed {
		t.Fatalf("payment from w%d for a customer on B's former w%d: committed=%v err=%v", aW, bW, committed, err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-errA:
		if err != nil {
			t.Fatalf("member A exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("member A did not shut down after Close")
	}
}

// cutProxy relays a member's connections to the head. cut closes every
// relayed connection and holds new ones until heal, so the member's
// redials hang instead of failing: a network partition that heals when
// the test says.
type cutProxy struct {
	ln     net.Listener
	head   string
	linked chan struct{} // closed once the first connection reaches the head
	done   chan struct{}
	mu     sync.Mutex
	up     chan struct{} // closed while the link is up
	conns  []net.Conn
}

func newCutProxy(t *testing.T, head string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{
		ln: ln, head: head,
		linked: make(chan struct{}), done: make(chan struct{}), up: make(chan struct{}),
	}
	close(p.up)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.relay(conn)
		}
	}()
	t.Cleanup(func() {
		close(p.done)
		ln.Close()
		p.cut()
	})
	return p
}

func (p *cutProxy) Addr() string { return p.ln.Addr().String() }

// relay waits for the link to be up, dials the head (retrying until
// Open listens) and copies both ways. A cut that lands between the wait
// and the dial sends it back to waiting.
func (p *cutProxy) relay(conn net.Conn) {
	for {
		p.mu.Lock()
		up := p.up
		p.mu.Unlock()
		select {
		case <-up:
		case <-p.done:
			conn.Close()
			return
		}
		head, err := net.Dial("tcp", p.head)
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		p.mu.Lock()
		if p.up != up {
			p.mu.Unlock()
			head.Close()
			continue
		}
		select {
		case <-p.linked:
		default:
			close(p.linked)
		}
		p.conns = append(p.conns, conn, head)
		p.mu.Unlock()
		go func() { io.Copy(head, conn); head.Close(); conn.Close() }()
		go func() { io.Copy(conn, head); conn.Close(); head.Close() }()
		return
	}
}

func (p *cutProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.up:
		p.up = make(chan struct{})
	default: // already cut
	}
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *cutProxy) heal() {
	p.mu.Lock()
	close(p.up)
	p.mu.Unlock()
}

// TestSessionAcrossMemberDeath pins the session story across a fault:
// a Session whose pipelined futures are in flight against the dying
// member sees every BLOCKED Wait return the typed error (never hang),
// and the same session — still pinned to its submission shard — keeps
// working after the partitions come home.
func TestSessionAcrossMemberDeath(t *testing.T) {
	addr := freeAddr(t)
	memberCtx, killMember := context.WithCancel(context.Background())
	defer killMember()
	nodeErr := make(chan error, 1)
	go func() { nodeErr <- anydb.ServeNode(memberCtx, addr) }()

	c, err := anydb.Open(faultCfg(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	memberOwned := -1
	for w, s := range c.Placement() {
		if s == 2 {
			memberOwned = w
			break
		}
	}
	sess := c.Session()
	defer sess.Close()

	// Block Waits in goroutines BEFORE the kill, so the typed error has
	// to wake real waiters rather than being observed after the fact.
	const inflight = 16
	futs := make([]*anydb.Future, inflight)
	for i := range futs {
		f, err := c.SubmitPayment(ctx, anydb.Payment{
			Warehouse: memberOwned, District: 1 + i%2, Customer: 1 + i%20, Amount: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	sessFut, err := sess.SubmitPayment(ctx, anydb.Payment{
		Warehouse: memberOwned, District: 1, Customer: 1, Amount: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		committed bool
		err       error
	}
	results := make(chan outcome, inflight)
	waitCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for _, f := range futs {
		go func(f *anydb.Future) {
			committed, err := f.Wait(waitCtx)
			results <- outcome{committed, err}
		}(f)
	}
	killMember()
	for i := 0; i < inflight; i++ {
		r := <-results
		if r.err != nil && !errors.Is(r.err, anydb.ErrMemberDown) {
			t.Fatalf("blocked Wait %d: unexpected error %v", i, r.err)
		}
		if r.err != nil && r.committed {
			t.Fatalf("blocked Wait %d: committed=true with %v", i, r.err)
		}
	}
	// The session's in-flight future resolves the same way, on the
	// session goroutine.
	if committed, err := sessFut.Wait(waitCtx); err != nil {
		if !errors.Is(err, anydb.ErrMemberDown) {
			t.Fatalf("session future Wait: unexpected error %v", err)
		}
		if committed {
			t.Fatal("session future: committed=true with ErrMemberDown")
		}
	}
	select {
	case <-nodeErr:
	case <-time.After(10 * time.Second):
		t.Fatal("member did not exit")
	}

	// After adoption the SAME session must succeed on the adopted
	// warehouse: its pinned shard re-enters via the parked path across
	// the adoption gate. Retry while the grace window closes.
	deadline := time.Now().Add(15 * time.Second)
	for {
		committed, err := sess.Payment(anydb.Payment{
			Warehouse: memberOwned, District: 1, Customer: 1, Amount: 1,
		})
		if err == nil && committed {
			break
		}
		if err != nil && !errors.Is(err, anydb.ErrMemberDown) {
			t.Fatalf("post-death session payment: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never recovered: committed=%v err=%v", committed, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMemberDeathFailsQueries pins the analytical side of failover: a
// query in flight when the member dies resolves with ErrMemberDown
// instead of hanging (its scans on the dead member can never report).
func TestMemberDeathFailsQueries(t *testing.T) {
	addr := freeAddr(t)
	memberCtx, killMember := context.WithCancel(context.Background())
	defer killMember()
	nodeErr := make(chan error, 1)
	go func() { nodeErr <- anydb.ServeNode(memberCtx, addr) }()

	c, err := anydb.Open(faultCfg(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Keep queries flowing while the member dies: every one must end in
	// a result or ErrMemberDown, within the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sawDown := false
	for i := 0; i < 200; i++ {
		if i == 5 {
			killMember()
		}
		var n int64
		err := c.QueryRow(ctx, "SELECT COUNT(*) FROM district").Scan(&n)
		switch {
		case err == nil:
			if n != 8*2 {
				t.Fatalf("query %d: district count = %d, want 16", i, n)
			}
		case errors.Is(err, anydb.ErrMemberDown):
			sawDown = true
		default:
			t.Fatalf("query %d: unexpected error %v", i, err)
		}
	}
	select {
	case <-nodeErr:
	case <-time.After(10 * time.Second):
		t.Fatal("member did not exit")
	}
	t.Logf("saw ErrMemberDown on at least one query: %v", sawDown)
}

// TestMemberReconnect drops the head↔member CONNECTION while both
// processes stay alive: the member must redial inside the grace
// window, the head must splice the fresh connection, and traffic must
// flow again — no partition adoption, no eviction.
func TestMemberReconnect(t *testing.T) {
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nodeErr := make(chan error, 1)
	go func() { nodeErr <- anydb.ServeNode(ctx, addr) }()

	cfg := faultCfg(addr)
	cfg.MemberGrace = 5 * time.Second // plenty for the redial
	c, err := anydb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	memberOwned := -1
	for w, s := range c.Placement() {
		if s == 2 {
			memberOwned = w
			break
		}
	}
	pay := func() (bool, error) {
		f, err := c.SubmitPayment(ctx, anydb.Payment{
			Warehouse: memberOwned, District: 1, Customer: 1, Amount: 1,
		})
		if err != nil {
			return false, err
		}
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		return f.Wait(wctx)
	}
	if committed, err := pay(); err != nil || !committed {
		t.Fatalf("pre-drop payment: committed=%v err=%v", committed, err)
	}

	// Sever the wire. The hook closes the socket without marking the
	// peer dead — exactly what a network drop looks like to both sides.
	c.AbortMemberConns()

	// The break fails in-flight work and the member redials; once the
	// splice lands, payments against the member-owned partition succeed
	// again WITHOUT the partition moving home.
	deadline := time.Now().Add(10 * time.Second)
	for {
		committed, err := pay()
		if err == nil && committed {
			break
		}
		if err != nil && !errors.Is(err, anydb.ErrMemberDown) {
			t.Fatalf("payment during reconnect: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("member never reconnected: committed=%v err=%v", committed, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := c.Placement()[memberOwned]; got != 2 {
		t.Fatalf("warehouse %d moved to server %d — reconnect should not trigger adoption", memberOwned, got)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("verify after reconnect: %v", err)
	}
	c.Close()
	select {
	case err := <-nodeErr:
		if err != nil {
			t.Fatalf("member exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("member did not shut down after Close")
	}
}
