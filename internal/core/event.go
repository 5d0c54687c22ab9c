// Package core implements the paper's primary contribution: the
// architecture-less execution model. A DBMS is composed of one generic
// component type — the AnyComponent (AC) — instrumented by two kinds of
// streams: events (what to execute) and data (the state the event needs).
// Per-query routing of those streams decides which architecture the
// system momentarily is: shared-nothing, shared-disk, or anything between
// (§2.1). The same AC logic runs on two runtimes: a goroutine runtime
// (Engine) used by the public API, and a deterministic virtual-time
// runtime (SimCluster) used by the benchmark harness to reproduce the
// paper's multi-core figures on any machine.
package core

import (
	"fmt"
	"sync"

	"anydb/internal/storage"
)

// ACID identifies an AnyComponent within a cluster.
type ACID int

// NoAC is the invalid component id.
const NoAC ACID = -1

// TxnID identifies a transaction.
type TxnID uint64

// QueryID identifies an OLAP query.
type QueryID uint64

// StreamID identifies one data stream (one producer→consumer edge of one
// query or transaction).
type StreamID uint64

// EventKind selects the behavior an AC performs for an event — the
// mechanism by which a generic component "acts as" a query optimizer, a
// worker, a sequencer, or storage (Figure 2).
type EventKind uint8

const (
	// EvTxn submits a whole transaction to a coordinator/dispatcher AC.
	EvTxn EventKind = iota
	// EvSegment executes a sub-sequence of transaction operations
	// (Figure 4: the unit of physical (dis)aggregation).
	EvSegment
	// EvAck reports segment completion to the transaction coordinator.
	EvAck
	// EvTxnDone reports transaction completion to the client/harness.
	EvTxnDone
	// EvQuery submits an OLAP query to whichever AC should act as the
	// query optimizer.
	EvQuery
	// EvInstallOp instruments an AC with a query operator (scan, join
	// build/probe, aggregate); the operator then consumes data streams.
	EvInstallOp
	// EvOpDone reports operator completion to the query coordinator.
	EvOpDone
	// EvQueryDone reports query completion to the client/harness.
	EvQueryDone
	// EvSeqStamp routes an event through a sequencer for streaming CC.
	EvSeqStamp
	// EvControl carries cluster management commands (elasticity,
	// draining, failure injection).
	EvControl
	// EvSignal carries a workload-signal report (*oltp.Report) from a
	// dispatching or coordinating AC toward the adaptation controller
	// AC — the observation half of the self-driving loop.
	EvSignal
	// EvAdapt carries an architecture-change decision
	// (*adapt.Decision) from the adaptation controller to the
	// client/harness, which owns injection and can therefore drain and
	// reroute safely.
	EvAdapt
	// EvLogDurable tells a dispatcher how far the shared command log is
	// durable: Seq carries the durable LSN, Payload the latched device
	// error (nil while the log is healthy). The log writer injects it
	// after every group commit; the dispatcher releases the parked
	// transactions it covers (or fails them all on error).
	EvLogDurable
)

var eventKindNames = [...]string{
	"Txn", "Segment", "Ack", "TxnDone", "Query", "InstallOp",
	"OpDone", "QueryDone", "SeqStamp", "Control", "Signal", "Adapt",
	"LogDurable",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one self-contained unit of the event stream. Events fully
// describe what to do; required state arrives separately via data
// streams referenced by Need.
type Event struct {
	Kind  EventKind
	Txn   TxnID
	Query QueryID
	// Seq is the order stamp assigned by a sequencer under streaming
	// concurrency control; zero means unordered.
	Seq uint64
	// Need lists data streams that must have begun delivery (and, if
	// the payload demands, completed) before the event can execute. An
	// AC never blocks on them: the event parks and other events run
	// (§2.1 non-blocking execution).
	Need []StreamID
	// NeedClosed requires the Need streams to be fully delivered, not
	// just opened (e.g. a hash-join build consumes its entire input).
	NeedClosed bool
	// Payload is the behavior-specific body (*oltp.Segment,
	// *olap.OpSpec, query text, ...).
	Payload any
	// Client is an opaque completion token the submitter attaches to
	// EvTxn; the OLTP pipeline threads it through segments and acks so
	// the EvTxnDone payload carries it back. Completions then resolve
	// without any shared lookup table — the paper's "events fully
	// describe what to do" applied to the client boundary. Nil for
	// harness-injected work.
	Client any
	// Size approximates the wire size in bytes for transfer modelling.
	Size int64
}

// WireSize returns the modelled size of the event (header + payload).
func (e *Event) WireSize() int64 {
	if e.Size > 0 {
		return 64 + e.Size
	}
	return 64
}

// eventPool recycles Events on the OLTP hot path: every transaction
// costs several events (EvTxn, EvSegment, EvAck, EvTxnDone), all with
// clear single-consumer ownership, so pooling them removes the dominant
// steady-state allocations of the event plane.
var eventPool = sync.Pool{New: func() any { return new(Event) }}

// GetEvent returns a zeroed Event from the pool. Pair with FreeEvent at
// the point the event is provably dead.
func GetEvent() *Event {
	if trackPools.Load() {
		eventBal.Add(1)
	}
	return eventPool.Get().(*Event)
}

// FreeEvent recycles ev. Only the consumer an event was delivered to may
// free it, and only when no reference escaped its handler: a freed event
// may be reused for an unrelated message immediately. Events parked on
// data streams or re-sent (operator continuations) must not be freed.
// Freeing is optional — events that miss their free (dropped delivery to
// a killed AC, simulation runs) fall back to the GC.
//
// Every field a producer may have set is reset by an explicit store,
// keeping the Need slice's capacity: the compiler would route
// `*ev = Event{}` through memclr (the struct holds pointers), while
// stores of mostly-already-zero fields cost a handful of moves.
func FreeEvent(ev *Event) {
	if trackPools.Load() {
		eventBal.Add(-1)
	}
	ev.Kind = 0
	ev.Txn = 0
	ev.Query = 0
	ev.Seq = 0
	ev.Need = ev.Need[:0]
	ev.NeedClosed = false
	ev.Payload = nil
	ev.Client = nil
	ev.Size = 0
	eventPool.Put(ev)
}

// DataMsg is one element of a data stream: a columnar batch, or a pure
// end-of-stream marker when Batch is nil and Last is true. Data is
// "active": producers push it toward the AC that will need it, ideally
// before the matching event arrives (data beaming, §2.3).
//
// A stream may have several producers (e.g. one scan per partition
// feeding one join). Each producer sends its own Last marker carrying
// Producers = the fan-in; the consumer treats the stream as closed once
// that many markers arrived. Producers == 0 means 1.
type DataMsg struct {
	Stream    StreamID
	Query     QueryID
	Batch     *storage.Batch
	Last      bool
	Producers int
	// Prehashed marks batches that crossed a DPI flow: the NIC already
	// partitioned/hashed them in flight (§4's co-processor effect), so
	// hash-consuming operators charge reduced per-row cost.
	Prehashed bool
}

// WireSize returns the modelled size of the message.
func (m *DataMsg) WireSize() int64 {
	if m.Batch == nil {
		return 32
	}
	return 32 + m.Batch.Bytes()
}

// dataPool recycles DataMsgs on the OLAP hot path: every scan flush and
// join emit wraps its batch in one, and each dies at exactly one
// consuming AC (HandleData/Subscribe), so pooling them removes the
// per-flush envelope allocation of the data plane.
var dataPool = sync.Pool{New: func() any { return new(DataMsg) }}

// GetDataMsg returns a zeroed DataMsg from the pool. Pair with
// FreeDataMsg at the message's single-consumer death point.
func GetDataMsg() *DataMsg {
	if trackPools.Load() {
		dataBal.Add(1)
	}
	return dataPool.Get().(*DataMsg)
}

// FreeDataMsg recycles m (not its Batch — batches have their own pool
// and their own, usually later, death point). The same ownership rules
// as FreeEvent apply: only the consumer a message was delivered to may
// free it, and only when no reference escaped. Frees are optional;
// missed ones fall back to the GC.
func FreeDataMsg(m *DataMsg) {
	if trackPools.Load() {
		dataBal.Add(-1)
	}
	m.Stream = 0
	m.Query = 0
	m.Batch = nil
	m.Last = false
	m.Producers = 0
	m.Prehashed = false
	dataPool.Put(m)
}
