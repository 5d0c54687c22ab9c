package anydb_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"anydb"
)

// TestSessionBasic: a session submits pipelined payments that all
// commit, with results identical to the session-less path.
func TestSessionBasic(t *testing.T) {
	c := openWide(t, anydb.Config{})
	ctx := context.Background()

	s := c.Session()
	defer s.Close()

	futs := make([]*anydb.Future, 0, 64)
	for i := 0; i < 64; i++ {
		f, err := s.SubmitPayment(ctx, anydb.Payment{
			Warehouse: i % 8, District: 1 + i%2, Customer: 1 + i%50, Amount: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		ok, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("payment aborted")
		}
	}
	if ok, err := s.NewOrder(anydb.NewOrder{
		Warehouse: 1, District: 1, Customer: 2,
		Lines: []anydb.OrderLine{{Item: 1, Qty: 1, SupplyWarehouse: 1}},
	}); err != nil || !ok {
		t.Fatalf("session new-order: ok=%v err=%v", ok, err)
	}
	var n int64
	if err := c.QueryRow(ctx, "SELECT COUNT(*) FROM warehouse").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("warehouse count = %d, want 8", n)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionClosed pins the lifecycle contract: Close is idempotent,
// every method on a closed session reports ErrSessionClosed, and
// futures issued before Close stay valid.
func TestSessionClosed(t *testing.T) {
	c := openWide(t, anydb.Config{})
	ctx := context.Background()

	s := c.Session()
	f, err := s.SubmitPayment(ctx, anydb.Payment{Warehouse: 1, District: 1, Customer: 1, Amount: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // double close is a no-op

	// The in-flight future outlives the session and still resolves.
	if ok, err := f.Wait(ctx); err != nil || !ok {
		t.Fatalf("pre-close future: ok=%v err=%v", ok, err)
	}

	if _, err := s.SubmitPayment(ctx, anydb.Payment{Warehouse: 1, District: 1, Customer: 1, Amount: 1}); !errors.Is(err, anydb.ErrSessionClosed) {
		t.Fatalf("SubmitPayment after close: err=%v, want ErrSessionClosed", err)
	}
	if _, err := s.SubmitNewOrder(ctx, anydb.NewOrder{
		Warehouse: 1, District: 1, Customer: 1,
		Lines: []anydb.OrderLine{{Item: 1, Qty: 1, SupplyWarehouse: 1}},
	}); !errors.Is(err, anydb.ErrSessionClosed) {
		t.Fatalf("SubmitNewOrder after close: err=%v, want ErrSessionClosed", err)
	}
	if _, err := s.Query(ctx, "SELECT COUNT(*) FROM warehouse"); !errors.Is(err, anydb.ErrSessionClosed) {
		t.Fatalf("Query after close: err=%v, want ErrSessionClosed", err)
	}
}

// TestSessionStaleHandleDoesNotAlias: a handle that was already closed
// is inert — closing it again after another session was opened must not
// close that other session.
func TestSessionStaleHandleDoesNotAlias(t *testing.T) {
	c := openWide(t, anydb.Config{})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		s1 := c.Session()
		s1.Close()
		s2 := c.Session()
		s1.Close()
		f, err := s2.SubmitPayment(ctx, anydb.Payment{Warehouse: 1, District: 1, Customer: 1, Amount: 1})
		if err != nil {
			t.Fatalf("iteration %d: stale Close reached the next session: %v", i, err)
		}
		if ok, err := f.Wait(ctx); err != nil || !ok {
			t.Fatalf("iteration %d: ok=%v err=%v", i, ok, err)
		}
		s2.Close()
	}
}

// TestSessionFuturesWaitedElsewhere: futures issued by a session are
// goroutine-free. One goroutine submits 64-deep windows on a session
// while another Waits on them — one Wait per window abandoned through
// an already-cancelled context — and the session closes with futures
// still in flight. Every non-abandoned Wait must commit, and a drained
// Close must leave the pools balanced.
func TestSessionFuturesWaitedElsewhere(t *testing.T) {
	assertBalanced := trackPools(t)
	c := openWide(t, anydb.Config{})
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	const window, rounds = 64, 4
	handoff := make(chan *anydb.Future, window)
	waited := make(chan error, 1)
	go func() {
		n := 0
		for f := range handoff {
			wctx := ctx
			if n++; n%window == 0 {
				wctx = cancelled
			}
			ok, err := f.Wait(wctx)
			if errors.Is(err, context.Canceled) {
				continue // abandoned: the payment still completes
			}
			if err != nil || !ok {
				waited <- fmt.Errorf("future %d: ok=%v err=%v", n, ok, err)
				return
			}
		}
		waited <- nil
	}()

	s := c.Session()
	for i := 0; i < window*rounds; i++ {
		f, err := s.SubmitPayment(ctx, anydb.Payment{
			Warehouse: i % 8, District: 1 + i%2, Customer: 1 + i%50, Amount: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		handoff <- f
	}
	s.Close() // the waiter is still draining the last window
	close(handoff)
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().UnmatchedDone; n != 0 {
		t.Fatalf("UnmatchedDone = %d, want 0", n)
	}
	c.Close()
	assertBalanced()
}

// TestSessionPolicyChurn: sessions opened before a wave of SetPolicy
// switches keep submitting through every epoch transition.
func TestSessionPolicyChurn(t *testing.T) {
	assertBalanced := trackPools(t)
	c := openWide(t, anydb.Config{})
	ctx := context.Background()

	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := c.Session()
			defer s.Close()
			futs := make([]*anydb.Future, 0, 16)
			for i := 0; ; i++ {
				select {
				case <-stop:
					for _, f := range futs {
						f.Wait(ctx)
					}
					return
				default:
				}
				f, err := s.SubmitPayment(ctx, anydb.Payment{
					Warehouse: (w + i) % 8, District: 1 + i%2, Customer: 1 + i%50, Amount: 1,
				})
				if err != nil {
					errCh <- err
					return
				}
				futs = append(futs, f)
				if len(futs) == cap(futs) {
					for _, f := range futs {
						if _, err := f.Wait(ctx); err != nil {
							errCh <- err
							return
						}
					}
					futs = futs[:0]
				}
			}
		}(w)
	}

	policies := []anydb.Policy{anydb.NaiveIntra, anydb.PreciseIntra, anydb.StreamingCC, anydb.SharedNothing}
	for i := 0; i < 12; i++ {
		if err := c.SetPolicy(ctx, policies[i%len(policies)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().UnmatchedDone; n != 0 {
		t.Fatalf("UnmatchedDone = %d, want 0", n)
	}
	c.Close()
	assertBalanced()
}

// TestSessionRebalanceRepins: a session hammering one warehouse keeps
// flowing while that exact warehouse is moved between servers — the
// partition gate parks its submissions, and every one must still commit
// exactly once.
func TestSessionRebalanceRepins(t *testing.T) {
	c := openWide(t, anydb.Config{Servers: 2})
	ctx := context.Background()

	const moving = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := c.Session()
		defer s.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f, err := s.SubmitPayment(ctx, anydb.Payment{
				Warehouse: moving, District: 1 + i%2, Customer: 1 + i%50, Amount: 1,
			})
			if err != nil {
				errCh <- err
				return
			}
			if _, err := f.Wait(ctx); err != nil {
				errCh <- err
				return
			}
		}
	}()

	for i := 0; i < 4; i++ {
		target := (i + 1) % 2
		if err := c.Rebalance(ctx, moving, target); err != nil {
			t.Fatalf("rebalance %d -> server %d: %v", moving, target, err)
		}
		if got := c.Placement()[moving]; got != target {
			t.Fatalf("placement[%d] = %d after move, want %d", moving, got, target)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().UnmatchedDone; n != 0 {
		t.Fatalf("UnmatchedDone = %d, want 0", n)
	}
}

// TestSessionClusterClosed: sessions outlive policy switches but not
// the cluster — after Cluster.Close a session submit reports ErrClosed.
func TestSessionClusterClosed(t *testing.T) {
	c := openWide(t, anydb.Config{})
	s := c.Session()
	defer s.Close()
	c.Close()
	_, err := s.SubmitPayment(context.Background(), anydb.Payment{Warehouse: 1, District: 1, Customer: 1, Amount: 1})
	if !errors.Is(err, anydb.ErrClosed) {
		t.Fatalf("submit after cluster close: err=%v, want ErrClosed", err)
	}
}
