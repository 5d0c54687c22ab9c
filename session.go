package anydb

import (
	"context"
	"errors"

	"anydb/internal/tpcc"
)

// ErrSessionClosed is returned by every Session method after Close.
var ErrSessionClosed = errors.New("anydb: session closed")

// Session is a client's pinned handle onto the submission plane: one
// submission shard, chosen at open, and a closed flag — nothing else.
// The session-less Submit*/Query entry points fingerprint the calling
// goroutine per call to pick the in-flight shard; a Session picks its
// shard once (round-robin over the shard set, so concurrent sessions
// spread across the counters) and from there runs the very same
// submission path. The submission gate (SetPolicy, Rebalance, Verify)
// parks and resumes a session's submissions exactly like anyone
// else's.
//
// A Session is NOT safe for concurrent use: calls on it must come from
// one goroutine at a time. The Futures it issues are ordinary futures —
// they may be handed to and Waited on by any goroutine, and they stay
// valid after the session closes. For parallel load, open one session
// per worker goroutine. The session-less entry points remain available
// and fully concurrent-safe; both can be mixed freely on one cluster.
//
//	s := cluster.Session()
//	defer s.Close()
//	for i := 0; i < 128; i++ {
//		f, err := s.SubmitPayment(ctx, anydb.Payment{...})
//		...
//	}
type Session struct {
	c      *Cluster
	shard  int32
	closed bool
}

// Session opens a client session pinned to one submission shard; see
// the type documentation for the concurrency contract. Sessions may
// outlive policy switches and rebalances but not the cluster: after
// Cluster.Close every method returns ErrClosed.
func (c *Cluster) Session() *Session {
	return &Session{c: c, shard: int32(c.nextSess.Add(1)) & c.shardMask}
}

// Close marks the session closed: every later method returns
// ErrSessionClosed. Futures still in flight stay valid. Closing twice is
// a no-op, and a closed handle can never affect another session.
func (s *Session) Close() { s.closed = true }

// SubmitPayment enqueues a payment transaction on this session; see
// Cluster.SubmitPayment for the pipelining and Future semantics.
func (s *Session) SubmitPayment(ctx context.Context, p Payment) (*Future, error) {
	t, err := s.c.paymentTxn(p)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, t)
}

// SubmitNewOrder enqueues a new-order transaction on this session; see
// Cluster.SubmitNewOrder.
func (s *Session) SubmitNewOrder(ctx context.Context, no NewOrder) (*Future, error) {
	t, err := s.c.newOrderTxn(no)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, t)
}

// Payment is SubmitPayment + Wait without a deadline.
func (s *Session) Payment(p Payment) (bool, error) {
	f, err := s.SubmitPayment(context.Background(), p)
	if err != nil {
		return false, err
	}
	return f.Wait(context.Background())
}

// NewOrder is SubmitNewOrder + Wait without a deadline.
func (s *Session) NewOrder(no NewOrder) (bool, error) {
	f, err := s.SubmitNewOrder(context.Background(), no)
	if err != nil {
		return false, err
	}
	return f.Wait(context.Background())
}

// submit is the sessioned transaction entry: the cluster's one submit
// path on the session's pinned shard.
func (s *Session) submit(ctx context.Context, t *tpcc.Txn) (*Future, error) {
	if s.closed {
		tpcc.FreeTxn(t)
		return nil, ErrSessionClosed
	}
	return s.c.submitAt(ctx, t, s.shard)
}

// Query executes a read-only SQL query on this session; semantics match
// Cluster.Query. The query's in-flight count rides the session's pinned
// shard.
func (s *Session) Query(ctx context.Context, text string) (*Rows, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	res, err := s.c.runQueryAt(ctx, text, QueryOptions{Beam: true}, s.shard)
	if err != nil {
		return nil, err
	}
	return newRows(res), nil
}
