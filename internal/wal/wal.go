// Package wal implements the paper's "naïve" fault-tolerance approach
// (§2.3): committed transactions stream as log events to durable storage;
// after a crash the database is rebuilt by re-populating and replaying
// the log. Because AnyDB's transactions are deterministic commands (the
// same property streaming CC exploits), command logging suffices — the
// log records transaction parameters, not page images.
//
// The live cluster shares ONE Logger among all dispatcher ACs
// (write-ahead: a transaction's record is durable before any of its
// segments dispatch). Dispatchers only Append and Kick; a single
// log-writer goroutine (Start) swaps the open group out, pays one
// Write+Sync for everything any dispatcher appended meanwhile, and
// reports the new durable LSN — pipelined, self-clocking group commit:
// the next group fills while the current one is on the device, so the
// group size follows the load with no timer and no size setting, and no
// AC goroutine ever waits for the device. See oltp.Dispatcher and
// anydb.Config.Durability. Records use a canonical binary framing
// (record.go) so the hot path appends into a reused buffer, and
// recovery stops cleanly at the first torn, corrupt, or discontinuous
// record rather than failing the whole replay.
package wal

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"anydb/internal/oltp"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// Device is the durable medium: an append writer plus Sync and a reader
// over everything synced so far.
type Device interface {
	io.Writer
	// Sync makes everything written so far durable.
	Sync() error
	// Reader returns a reader over the durable prefix.
	Reader() (io.Reader, error)
}

// MemDevice is an in-memory Device for tests and examples. Crash is
// simulated by reading only the synced prefix: unsynced writes are lost.
type MemDevice struct {
	mu     sync.Mutex
	buf    []byte
	synced int
	Syncs  int
}

// Write implements io.Writer.
func (d *MemDevice) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buf = append(d.buf, p...)
	return len(p), nil
}

// Sync marks the current length durable.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synced = len(d.buf)
	d.Syncs++
	return nil
}

// Reader returns the durable prefix (what survives a crash).
func (d *MemDevice) Reader() (io.Reader, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &sliceReader{buf: d.buf[:d.synced]}, nil
}

// Corrupt truncates the durable prefix by n bytes, simulating a torn
// tail write.
func (d *MemDevice) Corrupt(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.synced > n {
		d.synced -= n
	} else {
		d.synced = 0
	}
}

type sliceReader struct {
	buf []byte
	off int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

// Logger appends committed transactions with group commit: records
// encode into an in-memory group buffer and one Write+Sync makes the
// whole group durable — amortizing the device round trip exactly like
// the acknowledgment batching the paper's storage events imply.
//
// Appends never wait for the device: a flush swaps the open group out
// under mu (double buffer, no copy) and writes it outside, so the next
// group accumulates while the current one syncs. Flush is synchronous
// for its caller; the live cluster instead runs one writer goroutine
// (Start) that flushes whenever it is kicked.
//
// The logger is fail-stop: the first device error latches, every
// subsequent Append and Flush reports it, and nothing more reaches the
// device. The database stays consistent because under write-ahead use
// the transactions of a failed group never execute.
type Logger struct {
	dev Device
	// flushMu serializes flushers (the writer goroutine, synchronous
	// Flush callers) across the swap, the device round trip and the
	// durable-LSN publish; it also owns spare. Acquired before mu.
	flushMu sync.Mutex
	spare   []byte // the group on the device, or last time's, kept for its capacity

	mu      sync.Mutex
	buf     []byte // the open group: encoded but unwritten records
	lsn     uint64
	durable uint64
	pending int
	err     error
	// GroupSize flushes automatically every N appends (0 = flush only
	// when asked: Flush, or the writer goroutine on Kick).
	GroupSize int

	// records and syncs count what reached the device durably: group
	// size = records / syncs. Written under flushMu, read by anyone.
	records, syncs atomic.Uint64

	// The writer goroutine (Start): kick holds at most one pending
	// wake-up, quit asks for the final drain, done reports the exit.
	kick       chan struct{}
	quit, done chan struct{}
}

// NewLogger returns a logger on dev.
func NewLogger(dev Device, groupSize int) *Logger {
	return &Logger{dev: dev, GroupSize: groupSize, kick: make(chan struct{}, 1)}
}

// Resume continues an existing log whose replay ended at lsn: the next
// Append gets lsn+1, keeping the on-device sequence continuous.
func (l *Logger) Resume(lsn uint64) {
	l.mu.Lock()
	l.lsn, l.durable = lsn, lsn
	l.mu.Unlock()
}

// Append logs one transaction command and returns its LSN. The record
// is durable only after a later flush covers it (DurableLSN ≥ the
// returned LSN). Safe for concurrent use; LSNs follow append order.
func (l *Logger) Append(txn *tpcc.Txn) (uint64, error) {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	l.lsn++
	lsn := l.lsn
	l.buf = appendRecord(l.buf, lsn, txn)
	l.pending++
	full := l.GroupSize > 0 && l.pending >= l.GroupSize
	l.mu.Unlock()
	if full {
		if err := l.Flush(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// Flush writes and syncs the open group, making every record appended
// before the call durable. A clean logger with nothing pending is a
// no-op (no fsync).
func (l *Logger) Flush() error {
	_, err := l.flush()
	return err
}

// flush is one group commit: swap the open group out, write and sync it
// with no lock an appender needs, publish the new durable LSN. It
// returns the durable LSN after the attempt.
func (l *Logger) flush() (uint64, error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.err != nil || l.pending == 0 {
		durable, err := l.durable, l.err
		l.mu.Unlock()
		return durable, err
	}
	group, upto, n := l.buf, l.lsn, l.pending
	l.buf, l.pending = l.spare[:0], 0
	l.mu.Unlock()

	_, err := l.dev.Write(group)
	if err != nil {
		err = fmt.Errorf("wal: write: %w", err)
	} else if err = l.dev.Sync(); err != nil {
		err = fmt.Errorf("wal: sync: %w", err)
	}
	l.spare = group

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.err = err
		return l.durable, err
	}
	l.durable = upto
	l.records.Add(uint64(n))
	l.syncs.Add(1)
	return upto, nil
}

// Start launches the log-writer goroutine: every Kick makes it flush
// whatever is open and then call notify — on the writer goroutine —
// with the durable LSN and the latched device error, if any. notify
// runs after every kick, even when the flush found nothing new, so a
// caller that registered interest just before kicking is always told.
// Stop ends the goroutine.
func (l *Logger) Start(notify func(durable uint64, err error)) {
	l.quit, l.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(l.done)
		for stop := false; !stop; {
			select {
			case <-l.kick:
			case <-l.quit:
				stop = true // after one final drain below
			}
			notify(l.flush())
		}
	}()
}

// Kick asks the writer goroutine to make everything appended so far
// durable. It never blocks: while a group is on the device one pending
// kick is remembered, and the flush it triggers covers every record
// appended before it runs — which is what makes the group commit
// self-clocking.
func (l *Logger) Kick() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// Stop flushes the open group one last time and waits for the writer
// goroutine to exit (a no-op if Start never ran). Appends must have
// ceased.
func (l *Logger) Stop() {
	if l.quit == nil {
		return
	}
	close(l.quit)
	<-l.done
}

// DurableLSN returns the highest LSN guaranteed to survive a crash.
func (l *Logger) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Err reports the latched device failure, if any.
func (l *Logger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats reports how many records have been made durable and with how
// many device syncs; their ratio is the realized group size.
func (l *Logger) Stats() (records, syncs uint64) {
	return l.records.Load(), l.syncs.Load()
}

// Replay decodes the durable prefix of dev and re-executes every record
// against db in LSN order. It returns the number of transactions
// applied, the byte offset of the clean prefix — callers truncate the
// device there (Truncater) before appending again, so a torn tail never
// sits in front of new records — and the last LSN applied (Logger.Resume
// continues from it).
//
// A torn tail, corrupt record, or LSN discontinuity ends the replay
// cleanly at the last good record: after a real crash the bytes past
// the durable prefix are garbage by definition, never an error. Device
// read failures and replay aborts are real errors.
func Replay(dev Device, db *storage.Database) (applied int, clean int64, lastLSN uint64, err error) {
	r, err := dev.Reader()
	if err != nil {
		return 0, 0, 0, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, 0, 0, err
	}
	// One executor, undo log and op scratch serve every record: a fresh
	// UndoLog per record (regrowing its entries) and a fresh op slice
	// were a quarter of recovery time.
	costs := sim.DefaultCosts()
	var undo storage.UndoLog
	ex := &oltp.Exec{DB: db, Costs: &costs, Charge: func(sim.Time) {}, Undo: &undo}
	var ops []oltp.Op
	off := 0
	for off < len(data) {
		lsn, txn, n, derr := decodeRecord(data[off:])
		if derr != nil {
			break // torn or corrupt tail: stop at the clean prefix
		}
		if lsn != lastLSN+1 {
			break // discontinuity: same corruption boundary
		}
		ops = oltp.ProgramAppend(ops[:0], &txn)
		if rerr := replay(ex, ops); rerr != nil {
			return applied, int64(off), lastLSN, rerr
		}
		lastLSN = lsn
		off += n
		applied++
	}
	return applied, int64(off), lastLSN, nil
}

// Recover replays the durable log into a freshly populated database:
// re-populate deterministically from cfg, then re-execute every logged
// command in LSN order. It returns the rebuilt database and the number
// of transactions replayed.
func Recover(dev Device, cfg tpcc.Config) (*storage.Database, int, error) {
	cfg = cfg.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	applied, _, _, err := Replay(dev, db)
	if err != nil {
		return nil, applied, err
	}
	return db, applied, nil
}

// replay re-executes one committed command's op program on ex.
func replay(ex *oltp.Exec, ops []oltp.Op) error {
	for _, op := range ops {
		if err := op.Run(ex); err != nil {
			// Only committed transactions are logged; an abort here
			// means the log is inconsistent with the command stream.
			ex.Undo.Rollback()
			return fmt.Errorf("wal: replayed transaction aborted: %w", err)
		}
	}
	ex.Undo.Commit()
	return nil
}
