package anydb

import (
	"context"
	"math/bits"
	"unsafe"

	"anydb/internal/tpcc"
)

// This file is the cluster's submission plane: the accounting every
// Submit*/Query entry and completion passes through, and the one gate
// every reconfiguration — a policy switch, Verify, Close, a partition
// handoff — uses to quiesce exactly the work it must.
//
// The paper's premise (§2) is that an architecture shift is
// instantaneous because state never moves; the client entry matches
// that by making the steady-state path contention-free. An uncontended
// submission performs no mutex lock/unlock at all:
//
//   - in-flight accounting is one atomic add per warehouse the work
//     touches (one or two bits for a transaction, the dedicated query
//     bit for analytics) on a goroutine-affine row of counters (and one
//     atomic sub each at completion);
//   - the open/gated decision is one atomic pointer load of the
//     published submitGate and one mask test;
//   - transaction ids come from an atomic counter, and the completion
//     rendezvous needs no shared lookup table at all — the *Future
//     rides the event plane as an opaque client token and comes back
//     on the DoneInfo.
//
// A drain publishes a submitGate naming the warehouse bits to quiesce:
// every bit in use plus the query bit for a policy switch, Verify or
// Close; one warehouse's bit plus the query bit for a partition handoff
// (Cluster.Rebalance, the controller's Move decisions, failover
// adoption). Submitters whose mask overlaps observe the gate after
// their increment (sequentially consistent, Dekker-style), back out,
// and park on the gate's reopen channel — so the drainer's sum over the
// gated counters can never miss an admitted submission, and a
// submitter can never slip under a drain. Everything else keeps flowing
// untouched. Completions keep decrementing; each decrement that
// observes a gate pings the drainer, which re-checks the sum. When it
// hits zero the drainer reconfigures inside that quiet window (routing
// policy, storage handoff, topology publish) and publishes an open
// value under the resulting policy, releasing the gate — the
// drain-or-reject guarantee (including ErrClosed once Close has begun)
// without a mutex on the entry.

// whSlots is the width of a submission shard's warehouse-count row: one
// slot per warehouse bit. Warehouses 0..62 get their own bit;
// everything above — and all analytical queries, which touch every
// partition — shares the top bit, so gating there is conservative,
// never unsound.
const whSlots = 64

// queryMask is the warehouse mask of an analytical query: the shared
// top bit. Every drain includes it (scans run at the partition owners),
// and warehouses ≥ 63 fold onto it too.
const queryMask = uint64(1) << (whSlots - 1)

// whBit returns warehouse w's mask bit.
func whBit(w int) uint64 {
	if w >= whSlots-1 {
		return queryMask
	}
	return uint64(1) << w
}

// allMask is the gate of a cluster-wide drain: every warehouse bit in
// use plus the query bit.
func (c *Cluster) allMask() uint64 {
	if c.cfg.Warehouses >= whSlots-1 {
		return ^uint64(0)
	}
	return queryMask | (uint64(1)<<c.cfg.Warehouses - 1)
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

// submitGate is the submission plane's one published value: the policy
// submissions route under and the warehouse bits currently gated (0
// when open). Entries overlapping mask park on reopen, which is closed
// when a successor value is published. An open value needs no reopen
// channel, and neither does Close's final gate, which is never
// succeeded: its waiters leave on closedCh.
type submitGate struct {
	policy Policy
	mask   uint64
	reopen chan struct{}
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

// addInflight adjusts each of shard si's per-warehouse counters named
// by mask. The row lives at si*whSlots, written by the same goroutines
// that pick shard si, so the accounting is one or two uncontended
// atomic adds on the hot path, no locks.
func (c *Cluster) addInflight(si int32, mask uint64, delta int64) {
	base := int(si) * whSlots
	for m := mask; m != 0; m &= m - 1 {
		c.whCounts[base+bits.TrailingZeros64(m)].Add(delta)
	}
}

// enterAt admits one piece of work touching mask, holding one in-flight
// count per bit on shard si, and returns the submitGate it entered
// under (its policy routes the work). The caller chooses the shard: a
// session's pinned one, or shardIdx for session-less callers. While a
// gate overlapping mask is published it parks until the plane reopens;
// ctx cancellation abandons the attempt and ErrClosed reports a
// cluster that will never reopen.
func (c *Cluster) enterAt(ctx context.Context, si int32, mask uint64) (*submitGate, error) {
	for {
		// Increment first, then read the gate: a drainer publishes its
		// gate before summing, so either it sees this increment or this
		// read sees the gate and backs out (never both missed).
		c.addInflight(si, mask, 1)
		g := c.plane.Load()
		if g.mask&mask == 0 {
			return g, nil
		}
		c.addInflight(si, mask, -1)
		c.pingDrainer()
		select {
		case <-g.reopen:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.closedCh:
			return nil, ErrClosed
		}
	}
}

// exitShard releases one in-flight count per bit of mask. If a gate is
// published the drainer is pinged to re-check its sum; the ping is
// advisory (buffered, dropped when one is already pending).
func (c *Cluster) exitShard(si int32, mask uint64) {
	c.addInflight(si, mask, -1)
	c.pingDrainer()
}

// pingDrainer wakes the drainer waiting on the counters, if any. At
// most one drainer exists at a time — every drain runs under switchMu.
func (c *Cluster) pingDrainer() {
	if c.plane.Load().mask != 0 {
		select {
		case c.drainWake <- struct{}{}:
		default:
		}
	}
}

// inflightOn sums the per-warehouse counters named by mask across all
// shards. Only meaningful to a drainer that has already published a
// gate covering mask (no new overlapping entries can commit; the sum
// may transiently overcount a backing-out racer, never undercount).
func (c *Cluster) inflightOn(mask uint64) int64 {
	var n int64
	for base := 0; base < len(c.whCounts); base += whSlots {
		for m := mask; m != 0; m &= m - 1 {
			n += c.whCounts[base+bits.TrailingZeros64(m)].Load()
		}
	}
	return n
}

// drainLocked publishes a gate over mask under the current policy and
// waits until no admitted work overlaps it. The caller holds switchMu;
// on success it reconfigures inside the quiet window and releases the
// returned gate with reopenLocked. On ctx cancellation the plane
// reopens unchanged; on Close it returns ErrClosed and leaves the gate
// up — Close owns the plane from there.
func (c *Cluster) drainLocked(ctx context.Context, mask uint64) (*submitGate, error) {
	g := &submitGate{policy: c.plane.Load().policy, mask: mask, reopen: make(chan struct{})}
	c.plane.Store(g)
	for c.inflightOn(mask) != 0 {
		select {
		case <-c.drainWake:
		case <-ctx.Done():
			c.reopenLocked(g, g.policy)
			return nil, ctx.Err()
		case <-c.closedCh:
			return nil, ErrClosed
		}
	}
	return g, nil
}

// reopenLocked publishes an open value under p and releases the
// submitters parked on g. switchMu must be held.
func (c *Cluster) reopenLocked(g *submitGate, p Policy) {
	c.plane.Store(&submitGate{policy: p})
	close(g.reopen)
}
