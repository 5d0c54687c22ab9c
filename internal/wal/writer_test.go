package wal

import (
	"errors"
	"sync"
	"testing"
	"time"

	"anydb/internal/tpcc"
)

// durableWaiter is the test's stand-in for the dispatchers: the writer's
// notify publishes the durable LSN (or the error) and appenders block on
// it, like a transaction parked in logq.
type durableWaiter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	durable uint64
	err     error
	notices int
}

func newDurableWaiter() *durableWaiter {
	w := &durableWaiter{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *durableWaiter) notify(durable uint64, err error) {
	w.mu.Lock()
	if durable > w.durable {
		w.durable = durable
	}
	if err != nil {
		w.err = err
	}
	w.notices++
	w.mu.Unlock()
	w.cond.Broadcast()
}

// wait blocks until lsn is durable or the log failed.
func (w *durableWaiter) wait(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < lsn && w.err == nil {
		w.cond.Wait()
	}
	if w.durable >= lsn {
		return nil
	}
	return w.err
}

func payment(i int) *tpcc.Txn {
	return &tpcc.Txn{Kind: tpcc.TxnPayment, Payment: tpcc.Payment{W: i % 2, D: 1, CW: i % 2, CD: 1, C: 1 + i%20, Amount: 1}}
}

// syncGate is a MemDevice whose Sync waits until every appender with
// records left to append has one the log has not yet made durable: in
// the group being synced, or queued behind it. It stands in for a
// device round trip long enough for every appender to re-queue, with no
// clock involved.
type syncGate struct {
	*MemDevice
	durable func() uint64 // the log's durable LSN, read as a sync starts

	mu   sync.Mutex
	cond *sync.Cond
	last []uint64 // per appender: the LSN of its latest record
	left []int    // per appender: records still to append
}

func newSyncGate(mem *MemDevice, appenders, rounds int) *syncGate {
	d := &syncGate{MemDevice: mem, last: make([]uint64, appenders), left: make([]int, appenders)}
	d.cond = sync.NewCond(&d.mu)
	for a := range d.left {
		d.left[a] = rounds
	}
	return d
}

// appended records appender a's latest record.
func (d *syncGate) appended(a int, lsn uint64) {
	d.mu.Lock()
	d.last[a] = lsn
	d.left[a]--
	d.mu.Unlock()
	d.cond.Broadcast()
}

// Sync holds the round trip until every unfinished appender has
// appended its next record, then syncs. It cannot wait forever: the
// writer notified the previous group before starting this one, so an
// appender whose latest record is durable is already on its way to the
// next Append.
func (d *syncGate) Sync() error {
	durable := d.durable()
	d.mu.Lock()
	for a := 0; a < len(d.last); {
		if d.left[a] > 0 && d.last[a] <= durable {
			d.cond.Wait()
			continue
		}
		a++
	}
	d.mu.Unlock()
	return d.MemDevice.Sync()
}

// TestWriterGroupsConcurrentAppenders is the group-size contract of the
// live path: with K appenders each waiting for its own record, every
// device round trip must cover whatever queued while the previous group
// was on the device, with no group-size setting. The device holds each
// sync until every unfinished appender has appended its next record, so
// each appender has a record in at least one of any two consecutive
// groups: its first lands in the first group or the one after, each
// later one at most two groups after the one before. Then R rounds
// take at most 2R syncs, and a group averages at least K/2 records,
// whatever the scheduler does.
func TestWriterGroupsConcurrentAppenders(t *testing.T) {
	const appenders, rounds = 16, 25
	mem := &MemDevice{}
	dev := newSyncGate(mem, appenders, rounds)
	log := NewLogger(dev, 0)
	dev.durable = log.DurableLSN
	w := newDurableWaiter()
	log.Start(w.notify)

	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lsn, err := log.Append(payment(a))
				if err != nil {
					t.Error(err)
					return
				}
				dev.appended(a, lsn)
				log.Kick()
				if err := w.wait(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	log.Stop()

	const appends = appenders * rounds
	if log.DurableLSN() != appends {
		t.Fatalf("durable LSN %d, want %d", log.DurableLSN(), appends)
	}
	records, syncs := log.Stats()
	if records != appends || int(syncs) != mem.Syncs {
		t.Fatalf("Stats = %d records / %d syncs, device saw %d syncs for %d appends", records, syncs, mem.Syncs, appends)
	}
	if group := float64(appends) / float64(mem.Syncs); group < appenders/2 {
		t.Fatalf("%d syncs for %d appends (group %.1f): writer did not group %d concurrent appenders", mem.Syncs, appends, group, appenders)
	}
	// One file, one LSN sequence: replay sees every record in order.
	cfg := walCfg()
	if _, applied, err := Recover(mem, cfg); err != nil || applied != appends {
		t.Fatalf("replay applied %d of %d, err %v", applied, appends, err)
	}
}

// TestWriterLoneAppenderSyncsPromptly: self-clocking means no timer — a
// single append with nobody else in flight gets its own sync right away.
func TestWriterLoneAppenderSyncsPromptly(t *testing.T) {
	mem := &MemDevice{}
	log := NewLogger(mem, 0)
	w := newDurableWaiter()
	log.Start(w.notify)
	defer log.Stop()

	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		lsn, err := log.Append(payment(i))
		if err != nil {
			t.Fatal(err)
		}
		log.Kick()
		if err := w.wait(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("%d lone appends took %v: the writer is waiting for something other than the kick", n, el)
	}
	if _, syncs := log.Stats(); syncs != n {
		t.Fatalf("%d syncs for %d lone appends, want one each", syncs, n)
	}
}

// TestWriterFailedSyncIsFailStop: a failed group reports the device
// error to the waiters, the durable LSN never passes it, later appends
// fail fast, and recovery sees exactly the pre-fault prefix.
func TestWriterFailedSyncIsFailStop(t *testing.T) {
	mem := &MemDevice{}
	dev := NewFaultDevice(mem)
	log := NewLogger(dev, 0)
	w := newDurableWaiter()
	log.Start(w.notify)

	var lsn uint64
	for i := 0; i < 5; i++ {
		lsn, _ = log.Append(payment(i))
	}
	log.Kick()
	if err := w.wait(lsn); err != nil {
		t.Fatal(err)
	}
	durable := log.DurableLSN()
	if durable != 5 {
		t.Fatalf("durable LSN %d after the first group, want 5", durable)
	}

	dev.FailSyncs(1)
	for i := 0; i < 7; i++ {
		lsn, _ = log.Append(payment(i))
	}
	log.Kick()
	if err := w.wait(lsn); !errors.Is(err, ErrInjected) {
		t.Fatalf("waiter of the failed group got %v, want ErrInjected", err)
	}
	if _, err := log.Append(payment(0)); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append after the failure = %v, want ErrInjected", err)
	}
	// Every later kick keeps reporting the failure, never progress.
	log.Kick()
	log.Stop()
	if got := log.DurableLSN(); got != durable {
		t.Fatalf("DurableLSN advanced past a failed sync: %d -> %d", durable, got)
	}
	if w.durable != durable {
		t.Fatalf("a notice reported durable=%d past the failed sync (%d)", w.durable, durable)
	}
	if _, applied, err := Recover(mem, walCfg()); err != nil || uint64(applied) != durable {
		t.Fatalf("replay applied %d (err %v), want the pre-fault prefix %d", applied, err, durable)
	}
}

// TestWriterStopDrains: Stop flushes what was appended but never kicked.
func TestWriterStopDrains(t *testing.T) {
	mem := &MemDevice{}
	log := NewLogger(mem, 0)
	w := newDurableWaiter()
	log.Start(w.notify)
	for i := 0; i < 9; i++ {
		if _, err := log.Append(payment(i)); err != nil {
			t.Fatal(err)
		}
	}
	log.Stop()
	if log.DurableLSN() != 9 || w.durable != 9 {
		t.Fatalf("after Stop durable = %d (noticed %d), want 9", log.DurableLSN(), w.durable)
	}
}

// TestFlushConcurrentWithWriter: synchronous Flush callers and the
// writer goroutine share one log without tearing the LSN sequence.
func TestFlushConcurrentWithWriter(t *testing.T) {
	mem := &MemDevice{}
	log := NewLogger(mem, 0)
	log.Start(func(uint64, error) {})
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := log.Append(payment(g)); err != nil {
					t.Error(err)
					return
				}
				if g%2 == 0 {
					log.Kick()
				} else if err := log.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	log.Stop()
	if _, applied, err := Recover(mem, walCfg()); err != nil || applied != workers*each {
		t.Fatalf("replay applied %d of %d, err %v", applied, workers*each, err)
	}
}
