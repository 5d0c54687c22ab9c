package anydb_test

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anydb"
	"anydb/internal/transport"
)

// freeAddr reserves a loopback port and releases it for the cluster to
// bind (the tiny reuse window is harmless in tests).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// smallDistCfg keeps two full TPC-C populations (head + member) cheap.
func smallDistCfg(addr string) anydb.Config {
	return anydb.Config{
		Warehouses: 8, Districts: 2, CustomersPerDistrict: 20,
		Items: 50, InitialOrdersPerDist: 20,
		Listen: addr, RemoteServers: 1,
	}
}

// TestDistributedPair drives the full multi-process stack — wire codec,
// batched TCP transport, router drainers, member engine — with the
// member running in-process over a real loopback connection: pipelined
// payments and new-orders against head- and member-owned partitions,
// SQL queries whose scans and joins execute on the member, live
// cross-process Rebalance in both directions under load, TPC-C Verify,
// and exactly-once completion accounting.
func TestDistributedPair(t *testing.T) {
	assertBalanced := trackPools(t)
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nodeErr := make(chan error, 1)
	go func() { nodeErr <- anydb.ServeNode(ctx, addr) }()

	c, err := anydb.Open(smallDistCfg(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	placement := c.Placement()
	headOwned, memberOwned := -1, -1
	for w, s := range placement {
		if s == 0 && headOwned < 0 {
			headOwned = w
		}
		if s == 2 && memberOwned < 0 {
			memberOwned = w
		}
	}
	if headOwned < 0 || memberOwned < 0 {
		t.Fatalf("expected both head- and member-owned partitions, placement %v", placement)
	}

	// Pipelined mixed load across every warehouse: half the partitions
	// execute in the other process.
	runLoad := func(rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			futs := make([]*anydb.Future, 0, 64)
			for w := 0; w < 8; w++ {
				f, err := c.SubmitPayment(ctx, anydb.Payment{
					Warehouse: w, District: 1 + r%2, Customer: 1 + w, Amount: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				futs = append(futs, f)
				f, err = c.SubmitNewOrder(ctx, anydb.NewOrder{
					Warehouse: w, District: 1 + r%2, Customer: 1 + w,
					Lines: []anydb.OrderLine{{Item: 1 + (r+w)%50, Qty: 1, SupplyWarehouse: w}},
				})
				if err != nil {
					t.Fatal(err)
				}
				futs = append(futs, f)
			}
			for _, f := range futs {
				if _, err := f.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	runLoad(10)

	// Analytics: scans run at the partition owners (half on the member),
	// joins and the sink on the member's compute server.
	var districts int64
	if err := c.QueryRow(ctx, "SELECT COUNT(*) FROM district").Scan(&districts); err != nil {
		t.Fatal(err)
	}
	if districts != 8*2 {
		t.Fatalf("district count = %d, want 16", districts)
	}
	if _, err := c.OpenOrders(ctx); err != nil {
		t.Fatal(err)
	}

	if err := c.Verify(); err != nil {
		t.Fatalf("verify after cross-process load: %v", err)
	}

	// Live cross-process migration under load: move a head-owned
	// warehouse into the member process and back while payments keep
	// flowing against it.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			f, err := c.SubmitPayment(ctx, anydb.Payment{
				Warehouse: headOwned, District: 1, Customer: 3, Amount: 2,
			})
			if err != nil {
				return
			}
			if _, err := f.Wait(ctx); err != nil {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.Rebalance(ctx, headOwned, 2); err != nil {
		t.Fatalf("rebalance to member: %v", err)
	}
	if got := c.Placement()[headOwned]; got != 2 {
		t.Fatalf("warehouse %d on server %d after move, want 2", headOwned, got)
	}
	runLoad(3)
	if err := c.Rebalance(ctx, headOwned, 0); err != nil {
		t.Fatalf("rebalance back to head: %v", err)
	}
	if got := c.Placement()[headOwned]; got != 0 {
		t.Fatalf("warehouse %d on server %d after move back, want 0", headOwned, got)
	}
	stop.Store(true)
	wg.Wait()
	runLoad(3)

	if err := c.Verify(); err != nil {
		t.Fatalf("verify after cross-process rebalance: %v", err)
	}
	if n := c.Stats().UnmatchedDone; n != 0 {
		t.Fatalf("UnmatchedDone = %d, want 0 (exactly-once violated)", n)
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
	// Verify still works post-Close: Close pulled the remote-owned
	// partitions home.
	if err := c.Verify(); err != nil {
		t.Fatalf("verify after close: %v", err)
	}
	// Both processes share this test binary's pools: a drained
	// cross-process shutdown must leave zero outstanding pooled
	// objects.
	assertBalanced()
}

// TestMemberHandshakeRejectsOtherProto pins the head's wire-version
// gate: a member whose Hello carries another protocol version is
// refused, and Open fails with the handshake error instead of waiting
// out the join window.
func TestMemberHandshakeRejectsOtherProto(t *testing.T) {
	addr := freeAddr(t)
	opened := make(chan error, 1)
	go func() {
		c, err := anydb.Open(smallDistCfg(addr))
		if err == nil {
			c.Close()
		}
		opened <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	var conn net.Conn
	for {
		var err error
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("head never listened: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	peer := transport.NewPeer(conn, nil)
	defer peer.Close()
	if err := peer.WriteControl(&transport.Hello{Proto: transport.ProtoVersion - 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-opened:
		if err == nil || !strings.Contains(err.Error(), "handshake") {
			t.Fatalf("Open = %v, want a member handshake error", err)
		}
	case <-time.After(time.Until(deadline)):
		t.Fatal("Open did not refuse the member within 10 s")
	}
}

// TestDistributedConfigErrors pins the distributed-mode restrictions.
func TestDistributedConfigErrors(t *testing.T) {
	if _, err := anydb.Open(anydb.Config{RemoteServers: 1}); err == nil {
		t.Fatal("RemoteServers without Listen must fail")
	}
	if _, err := anydb.Open(anydb.Config{
		Listen: "127.0.0.1:0", RemoteServers: 1, AutoAdapt: true,
	}); err == nil {
		t.Fatal("AutoAdapt on a multi-process cluster must fail")
	}

	addr := freeAddr(t)
	ctx := context.Background()
	nodeErr := make(chan error, 1)
	go func() { nodeErr <- anydb.ServeNode(ctx, addr) }()
	c, err := anydb.Open(smallDistCfg(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetPolicy(ctx, anydb.PreciseIntra); err == nil {
		t.Fatal("fine-grained policy on a multi-process cluster must fail")
	}
	if err := c.SetPolicy(ctx, anydb.SharedNothing); err != nil {
		t.Fatalf("SharedNothing no-op switch: %v", err)
	}
	c.Close()
	if err := <-nodeErr; err != nil {
		t.Fatalf("member exited with %v", err)
	}
}
