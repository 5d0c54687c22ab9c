package oltp

import (
	"errors"
	"testing"

	"anydb/internal/core"
	"anydb/internal/tpcc"
)

// fakeLog is a CommandLog the test drives by hand: it hands out LSNs and
// counts kicks; durability is whatever EvLogDurable events the test
// injects.
type fakeLog struct {
	lsn        uint64
	kicks      int
	failAppend error
}

func (f *fakeLog) Append(*tpcc.Txn) (uint64, error) {
	if f.failAppend != nil {
		return 0, f.failAppend
	}
	f.lsn++
	return f.lsn, nil
}

func (f *fakeLog) Kick() { f.kicks++ }

// logDurable plays the log writer: one EvLogDurable to the dispatcher.
func (c *cluster) logDurable(durable uint64, err error) {
	ev := &core.Event{Kind: core.EvLogDurable, Seq: durable}
	if err != nil {
		ev.Payload = err
	}
	c.cl.Inject(c.dispAC, ev, c.cl.Sched.Now())
	c.cl.Run()
}

// TestDispatcherLogFailureIsFailStop pins the write-ahead and fail-stop
// contract of the durable admission path: parked transactions execute
// nothing until the log reports them durable; a failed group fails
// every parked transaction with the device error and none of their
// segments runs; admissions after the failure fail fast without
// touching the log.
func TestDispatcherLogFailureIsFailStop(t *testing.T) {
	cfg := testCfg()
	db, _ := tpcc.NewDatabase(cfg)
	c := buildCluster(db, cfg, SharedNothing)
	log := &fakeLog{}
	c.dispatcher.Log = log
	before := snapshot(db, cfg)

	txns := genTxns(cfg, tpcc.Partitionable(), 13)
	c.submit(1, txns[:10])
	if c.committed+c.aborted != 0 {
		t.Fatalf("transactions resolved before their records were durable: %d committed, %d aborted", c.committed, c.aborted)
	}
	if got := snapshot(db, cfg); got != before {
		t.Fatal("a parked transaction's segment executed before the log was durable")
	}
	if !c.dispatcher.HasParked() {
		t.Fatal("HasParked false with 10 transactions parked")
	}
	// The dispatcher asks for the sync at batch end, once.
	if log.kicks != 0 {
		t.Fatalf("admission kicked the log %d times", log.kicks)
	}
	c.dispatcher.FlushBatch(nil)
	if log.kicks != 1 {
		t.Fatalf("FlushBatch kicked %d times, want 1", log.kicks)
	}

	// The first group (LSN 1..4) is durable: exactly those dispatch.
	c.logDurable(4, nil)
	if c.committed != 4 || c.aborted != 0 {
		t.Fatalf("durable=4 released committed=%d aborted=%d, want 4/0", c.committed, c.aborted)
	}
	afterGroup := snapshot(db, cfg)

	// The next group's sync fails: the durable LSN has not moved.
	errDev := errors.New("device gone")
	c.logDurable(4, errDev)
	if c.committed != 4 || c.aborted != 6 {
		t.Fatalf("failed group: committed=%d aborted=%d, want 4/6", c.committed, c.aborted)
	}
	if got := snapshot(db, cfg); got != afterGroup {
		t.Fatal("a transaction of the failed group executed")
	}
	if c.dispatcher.HasParked() {
		t.Fatal("HasParked still true after the failure drained logq")
	}

	// Fail-stop: later admissions fail fast and never reach the log.
	c.submit(11, txns[10:])
	if c.aborted != 9 || log.lsn != 10 {
		t.Fatalf("post-failure admissions: aborted=%d (want 9), appends=%d (want 10)", c.aborted, log.lsn)
	}
	if got := snapshot(db, cfg); got != afterGroup {
		t.Fatal("a transaction admitted after the failure executed")
	}
	if len(c.errs) != 9 {
		t.Fatalf("%d aborts carried an error, want 9", len(c.errs))
	}
	for _, err := range c.errs {
		if !errors.Is(err, errDev) {
			t.Fatalf("abort error = %v, want the device error", err)
		}
	}
	if _, err := tpcc.Verify(db, cfg); err != nil {
		t.Fatalf("state after fail-stop inconsistent: %v", err)
	}
}

// TestDispatcherAppendFailureFailsParked: an Append error latches the
// same way — the transaction that hit it and everything parked behind
// earlier appends fail, nothing executes.
func TestDispatcherAppendFailureFailsParked(t *testing.T) {
	cfg := testCfg()
	db, _ := tpcc.NewDatabase(cfg)
	c := buildCluster(db, cfg, SharedNothing)
	log := &fakeLog{}
	c.dispatcher.Log = log
	before := snapshot(db, cfg)

	txns := genTxns(cfg, tpcc.Partitionable(), 5)
	c.submit(1, txns[:3])
	log.failAppend = errors.New("log full")
	c.submit(4, txns[3:])
	if c.committed != 0 || c.aborted != 5 {
		t.Fatalf("committed=%d aborted=%d, want 0/5", c.committed, c.aborted)
	}
	if got := snapshot(db, cfg); got != before {
		t.Fatal("a transaction executed although the log failed")
	}
	// A late success report must not resurrect anything.
	c.logDurable(3, nil)
	if c.committed != 0 {
		t.Fatal("a failed transaction dispatched on a late durable notice")
	}
}
