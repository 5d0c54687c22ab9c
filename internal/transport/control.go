package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// Control plane: rare, latency-insensitive messages (handshake,
// partition migration, ownership broadcasts, shutdown) ride in gob
// frames so evolving them costs nothing — only the hot event/data plane
// uses the hand-rolled codec.

// ProtoVersion gates the handshake: both sides must speak the same wire
// format. Version 3 added the join's held probe scans and their key
// filter; version 4 dropped the shared scan's batch-size field; version
// 5 encodes a scan predicate as one string or one int range; version 6
// makes the key filter the build keys' box and its exact bitmap, and
// names the columns a join's output carries. Version 7 changes no byte
// but a contract: a pushdown's partial rows are in group order, and the
// sink merges them as ordered runs, so a member that sent them unordered
// would get wrong answers without any error.
const ProtoVersion = 7

// Hello is the member's first frame after dialing. A reconnecting
// member sets Rejoin with its previously assigned server slot; the head
// splices the fresh connection into the existing peer instead of
// running a full join.
type Hello struct {
	Proto  int
	Rejoin bool
	Server int
}

// Welcome assigns the member its server slot and everything needed to
// deterministically rebuild the head's database and topology: members
// do not ship data at join time, they repopulate from the same seed.
type Welcome struct {
	Proto   int
	Server  int // the member's server index in the topology
	Servers int // total servers (head's + all members')
	Cores   int // ACs per server
	TC      tpcc.Config
	Owners  []int // warehouse -> owner ACID at join time
	// HeartbeatNs is the Ping cadence both sides keep (0 disables);
	// silence beyond a few intervals trips the peer's read watchdog.
	HeartbeatNs int64
}

// Ready signals the member has built its state and spawned its ACs.
type Ready struct {
	Server int
}

// TableSnap is one table's contents inside a partition snapshot, split
// the way storage.Table.InstallRows re-inserts them.
type TableSnap struct {
	Name    string
	Keys    []storage.Key
	Rows    []storage.Row
	Keyless []storage.Row
}

// PartReq asks the receiver to snapshot its live copy of partition W.
type PartReq struct {
	Ref uint64
	W   int
}

// PartSnap answers a PartReq.
type PartSnap struct {
	Ref    uint64
	W      int
	Tables []TableSnap
}

// PartInstall pushes a snapshot into the receiver's partition W,
// replacing its contents.
type PartInstall struct {
	Ref    uint64
	W      int
	Tables []TableSnap
}

// PartAck acknowledges a PartInstall.
type PartAck struct {
	Ref uint64
	Err string
}

// OwnerUpdate broadcasts a topology ownership change (SetOwner) so
// every process's snapshot reroutes identically.
type OwnerUpdate struct {
	W  int
	AC int
}

// Bye tells a member to shut down; its serve loop returns cleanly.
type Bye struct{}

// Ping is the liveness heartbeat. No reply: each side sends its own,
// and arrival alone feeds the receiver's read watchdog.
type Ping struct{}

// RejoinOK confirms a rejoin handshake: the head spliced the connection
// and resumed the member's drainers onto it.
type RejoinOK struct{}

// ctrlBox wraps the concrete control message so one gob round trip
// carries any of them.
type ctrlBox struct {
	M any
}

func init() {
	gob.Register(&Hello{})
	gob.Register(&Welcome{})
	gob.Register(&Ready{})
	gob.Register(&PartReq{})
	gob.Register(&PartSnap{})
	gob.Register(&PartInstall{})
	gob.Register(&PartAck{})
	gob.Register(&OwnerUpdate{})
	gob.Register(&Bye{})
	gob.Register(&Ping{})
	gob.Register(&RejoinOK{})
}

// encodeControl gobs v into a standalone blob (self-describing: each
// control frame carries its own type info, so frames are independent
// and may interleave with message frames freely).
func encodeControl(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ctrlBox{M: v}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeControl(body []byte) (any, error) {
	var box ctrlBox
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&box); err != nil {
		return nil, err
	}
	return box.M, nil
}

// SnapshotPartition deep-copies every table of partition w — call only
// inside a drained quiet window.
func SnapshotPartition(db *storage.Database, w int) []TableSnap {
	p := db.Partition(w)
	tables := db.Catalog.Tables()
	out := make([]TableSnap, 0, len(tables))
	for _, tn := range tables {
		keys, rows, keyless := p.Table(tn).SnapshotRows()
		out = append(out, TableSnap{Name: tn, Keys: keys, Rows: rows, Keyless: keyless})
	}
	return out
}

// InstallPartition replaces partition w's contents with a snapshot. The
// snapshot arrives off the wire, so it is checked whole first — w in
// range, each table known and named once, and every table's rows
// (storage.Table.CheckRows) — and a malformed one is an error that
// leaves the partition untouched.
func InstallPartition(db *storage.Database, w int, tables []TableSnap) error {
	if w < 0 || w >= db.NumPartitions() {
		return fmt.Errorf("transport: snapshot of partition %d, have %d", w, db.NumPartitions())
	}
	p := db.Partition(w)
	seen := make(map[string]bool, len(tables))
	for _, ts := range tables {
		if !p.HasTable(ts.Name) {
			return fmt.Errorf("transport: snapshot of partition %d names unknown table %q", w, ts.Name)
		}
		if seen[ts.Name] {
			return fmt.Errorf("transport: snapshot of partition %d names table %q twice", w, ts.Name)
		}
		seen[ts.Name] = true
		if err := p.Table(ts.Name).CheckRows(ts.Keys, ts.Rows, ts.Keyless); err != nil {
			return err
		}
	}
	for _, ts := range tables {
		if err := p.Table(ts.Name).InstallRows(ts.Keys, ts.Rows, ts.Keyless); err != nil {
			return err
		}
	}
	return nil
}
