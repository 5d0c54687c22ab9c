package anydb

import (
	"context"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"anydb/internal/tpcc"
)

// This file is the cluster's submission plane: the accounting every
// Submit*/Query entry and completion passes through, and the epoch gate
// a policy switch (or Close, or Verify) uses to quiesce the cluster.
//
// The paper's premise (§2) is that an architecture shift is
// instantaneous because state never moves; the client entry matches
// that by making the steady-state path contention-free. An uncontended
// submission performs no mutex lock/unlock at all:
//
//   - in-flight accounting is one atomic add on a goroutine-affine,
//     cache-line-padded shard (and one atomic sub at completion);
//   - the open/draining decision is one atomic pointer load plus one
//     flag load on the current epoch;
//   - transaction ids come from an atomic counter, and the completion
//     rendezvous needs no shared lookup table at all — the *Future
//     rides the event plane as an opaque client token and comes back
//     on the DoneInfo.
//
// A drain (SetPolicy, Verify, Close) closes the current epoch with one
// flag store: submitters that race in observe the flag after their
// increment (sequentially consistent, Dekker-style), back out, and park
// on the epoch's reopen channel — so the drainer's counter sum can
// never miss an admitted submission, and a submitter can never slip
// under a drain. Completions keep decrementing; each decrement that
// observes a closed epoch pings the drainer, which re-checks the sum.
// When the sum hits zero the drainer reconfigures and publishes a fresh
// open epoch, releasing the gate — the drain-or-reject guarantee
// (including ErrClosed once Close has begun) of the old mutex plane,
// kept verbatim, without the mutex.
//
// Live repartitioning (Cluster.Rebalance, the controller's Move
// decisions) reuses the same epoch-gate pattern at PARTITION
// granularity: alongside its shard counter, every entry also counts
// against the warehouses its work touches (a bitmask — one or two bits
// for a transaction, the dedicated query bit for analytics). A handoff
// publishes a moveGate naming the moving warehouse's bits; submitters
// whose mask overlaps back out and park exactly like an epoch drain,
// while everything else keeps flowing untouched. Once the per-warehouse
// sum reaches zero, no in-flight segment can touch the moving partition
// anymore: the storage handoff and the atomic topology-snapshot publish
// happen in that quiet window, so no message ever targets a mid-move
// partition — and the rest of the cluster never notices.

// submitShard is one padded in-flight counter. Padding keeps each
// counter on its own cache line so parallel submitters on different
// shards never false-share.
type submitShard struct {
	n atomic.Int64
	_ [56]byte
}

// whSlots is the width of the per-shard warehouse-count row: one slot
// per warehouse bit. Warehouses 0..62 get their own bit; everything
// above — and all analytical queries, which touch every partition —
// shares the top bit, so gating there is conservative, never unsound.
const whSlots = 64

// queryMask is the warehouse mask of an analytical query: the shared
// top bit. A partition drain always includes it (scans run at the
// partition owners), and warehouses ≥ 63 fold onto it too.
const queryMask = uint64(1) << (whSlots - 1)

// whBit returns warehouse w's mask bit.
func whBit(w int) uint64 {
	if w >= whSlots-1 {
		return queryMask
	}
	return uint64(1) << w
}

// txnMask returns the warehouse bitmask of everything t touches —
// exactly the partitions its compiled op program writes (home plus the
// customer's warehouse for payments, home plus each supply warehouse
// for new-orders).
func txnMask(t *tpcc.Txn) uint64 {
	if t.Kind == tpcc.TxnPayment {
		return whBit(t.Payment.W) | whBit(t.Payment.CW)
	}
	m := whBit(t.NewOrder.W)
	for _, l := range t.NewOrder.Lines {
		m |= whBit(l.SupplyW)
	}
	return m
}

// moveGate is one partition handoff in progress: entries whose
// warehouse mask overlaps park on reopen; everything else flows.
// Published via Cluster.gate; nil means no move in progress.
type moveGate struct {
	mask   uint64
	reopen chan struct{}
}

// submitEpoch is one open interval of the submission plane. The shard
// counters are global (cluster-lifetime) — an epoch only carries the
// policy submissions route under, the draining flag, and the gate
// released when a successor epoch is published.
type submitEpoch struct {
	policy Policy
	// closed flips once a drain begins; it never unflips (reopening
	// publishes a successor epoch instead).
	closed atomic.Bool
	// reopen is closed when the successor epoch is published. A closed
	// epoch that is never succeeded (Close) leaves waiters to the
	// cluster-wide closedCh.
	reopen chan struct{}
}

func newEpoch(p Policy) *submitEpoch {
	return &submitEpoch{policy: p, reopen: make(chan struct{})}
}

// shardIdx picks the calling goroutine's submission shard. The address
// of a stack variable is a cheap goroutine fingerprint (stacks are
// distinct allocations, ≥2KiB apart), giving each calling goroutine a
// stable shard without runtime hooks; correctness never depends on the
// mapping — the future (or query registration) records the index that
// was incremented and the completion decrements exactly that shard.
func (c *Cluster) shardIdx() int32 {
	var marker byte
	return int32(uintptr(unsafe.Pointer(&marker))>>10) & c.shardMask
}

// addInflight adjusts shard si's total and each per-warehouse counter
// named by mask. The per-warehouse row lives at si*whSlots; it shares
// the shard's write locality (the same goroutines that write the shard
// counter write its row), so the partition-granularity accounting adds
// one or two uncontended atomic adds to the hot path, no locks.
func (c *Cluster) addInflight(si int32, mask uint64, delta int64) {
	c.shards[si].n.Add(delta)
	base := int(si) * whSlots
	for m := mask; m != 0; m &= m - 1 {
		c.whCounts[base+bits.TrailingZeros64(m)].Add(delta)
	}
}

// enterAt joins the current epoch, returning it with one in-flight
// count held on shard si for the given warehouse mask. The caller
// chooses the shard: a session's pinned one, or shardIdx for
// session-less callers. The uncontended path is lock-free: a few atomic
// adds, three atomic loads. While an epoch drain — or a partition
// handoff touching mask — is in progress it parks until the plane (or
// the partition) reopens; ctx cancellation abandons the attempt and
// ErrClosed reports a cluster that will never reopen.
func (c *Cluster) enterAt(ctx context.Context, si int32, mask uint64) (e *submitEpoch, err error) {
	for {
		e = c.sub.Load()
		// Increment first, then check the flags: a drainer sets its flag
		// (epoch closed / gate published) before summing, so either it
		// sees this increment or this check sees the flag and backs out
		// (never both missed).
		c.addInflight(si, mask, 1)
		g := c.gate.Load()
		if g != nil && g.mask&mask == 0 {
			g = nil // a move is in progress, but not on our partitions
		}
		if !e.closed.Load() && g == nil {
			return e, nil
		}
		c.addInflight(si, mask, -1)
		c.pingDrainer()
		if e.closed.Load() {
			select {
			case <-e.reopen:
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-c.closedCh:
				return nil, ErrClosed
			}
			continue
		}
		select {
		case <-g.reopen:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.closedCh:
			return nil, ErrClosed
		}
	}
}

// exitShard releases one in-flight count (shard plus warehouse bits).
// If a drain or handoff is in progress the drainer is pinged to
// re-check its sum; the ping is advisory (buffered, dropped when one is
// already pending).
func (c *Cluster) exitShard(si int32, mask uint64) {
	c.addInflight(si, mask, -1)
	c.pingDrainer()
}

// pingDrainer wakes whichever drainer (epoch or partition) is waiting
// on the counters. At most one drainer exists at a time — every drain
// runs under switchMu.
func (c *Cluster) pingDrainer() {
	if c.sub.Load().closed.Load() || c.gate.Load() != nil {
		select {
		case c.drainWake <- struct{}{}:
		default:
		}
	}
}

// inflightCount sums the shards. Only meaningful to a drainer that has
// already closed the current epoch (no new entries can commit, so a
// zero sum is stable).
func (c *Cluster) inflightCount() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].n.Load()
	}
	return n
}

// inflightOn sums the per-warehouse counters named by mask across all
// shards. Only meaningful to a drainer that has already published a
// gate covering mask (no new overlapping entries can commit; the sum
// may transiently overcount a backing-out racer, never undercount).
func (c *Cluster) inflightOn(mask uint64) int64 {
	var n int64
	for si := 0; si < len(c.shards); si++ {
		base := si * whSlots
		for m := mask; m != 0; m &= m - 1 {
			n += c.whCounts[base+bits.TrailingZeros64(m)].Load()
		}
	}
	return n
}

// drainLocked waits for the in-flight sum to reach zero. The caller
// holds switchMu and has closed the current epoch. On ctx cancellation
// the drain is abandoned (caller reopens with the old policy); on
// cluster close it returns ErrClosed and the caller must NOT reopen —
// Close owns the plane from there.
func (c *Cluster) drainLocked(ctx context.Context) error {
	for c.inflightCount() != 0 {
		select {
		case <-c.drainWake:
		case <-ctx.Done():
			return ctx.Err()
		case <-c.closedCh:
			return ErrClosed
		}
	}
	return nil
}

// drainPartitionLocked waits for the in-flight work overlapping mask to
// reach zero. The caller holds switchMu and has published a gate with
// this mask. Same abandonment contract as drainLocked.
func (c *Cluster) drainPartitionLocked(ctx context.Context, mask uint64) error {
	for c.inflightOn(mask) != 0 {
		select {
		case <-c.drainWake:
		case <-ctx.Done():
			return ctx.Err()
		case <-c.closedCh:
			return ErrClosed
		}
	}
	return nil
}

// reopenLocked publishes a fresh open epoch under p and releases the
// submitters gated on prev. switchMu must be held.
func (c *Cluster) reopenLocked(prev *submitEpoch, p Policy) {
	c.sub.Store(newEpoch(p))
	close(prev.reopen)
}
