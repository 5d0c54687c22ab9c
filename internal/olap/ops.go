// Package olap implements AnyDB's analytical operators as AnyComponent
// behaviors: a shared scan per (table, partition) that many queries
// register with and that actively pushes filtered, projected columnar
// batches (or pushed-down partial aggregates) into data streams, hash
// joins whose build and probe sides are separate streams (so either can
// be beamed ahead of time, §4, or the probe side's scans can wait for
// the build and skip rows no build key matches), and one generic sink
// that aggregates, orders and limits the result. Operators are
// installed by EvInstallOp events; which AC they land on — co-located
// with storage (aggregated) or on another server (disaggregated) — is
// purely a routing decision.
package olap

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// PredKind selects a scan predicate.
type PredKind uint8

const (
	// PredPrefix keeps rows whose string column starts with Str.
	PredPrefix PredKind = iota
	// PredEqStr keeps rows whose string column equals Str.
	PredEqStr
	// PredIn keeps rows whose int column lies in [Lo, Hi].
	PredIn
	// PredOut keeps rows whose int column lies outside [Lo, Hi].
	PredOut
)

// Predicate is a single-column filter: a string prefix or equality, or
// an int range. Every int comparison is one closed range — equality is
// Lo == Hi, a one-sided comparison leaves the other bound at the int64
// limit, inequality is PredOut — and Lo > Hi is the empty range.
// Predicate is comparable, so equal filter lists are found with ==.
type Predicate struct {
	Col    string
	Kind   PredKind
	Str    string
	Lo, Hi int64
}

// JoinSpec instructs an AC to hash-join (inner equi-join) two incoming
// streams; each match emits the build row concatenated with the probe
// row. The build side is consumed entirely first (NeedClosed semantics);
// probe batches stream through afterwards — any probe data beamed early
// waits staged at the AC.
type JoinSpec struct {
	Query     core.QueryID
	Build     core.StreamID
	BuildKey  []string // join key columns in the build batch schema
	Probe     core.StreamID
	ProbeKey  []string
	Out       core.StreamID
	To        core.ACID
	Producers int
	// Notify receives EvOpDone events at build completion and probe
	// completion (the harness's Figure 6 instrumentation).
	Notify core.ACID
	Label  string
	// ProbeScans are the probe side's shared-scan registrations when the
	// QO holds them back instead of installing them itself: the join
	// installs them once its build side is complete, each carrying a
	// KeyFilter over the build keys, so the scans drop the rows no build
	// key can match before gathering and shipping them (sideways
	// information passing). Empty when the probe scans run unfiltered.
	ProbeScans []ScanInstall
}

// ScanInstall is one held shared-scan registration and the AC (the
// partition's owner) it is installed at.
type ScanInstall struct {
	At   core.ACID
	Spec *SharedScanSpec
}

// KeyFilter is what a hash join tells its probe-side scans: a Bloom
// filter over the distinct build keys. Each key sets two bits of one
// 64-bit word, all three picked from hashKey, so a test is one word
// load. It has no false negatives; its false positives (about 0.5–2 %
// at 16 bits per key) reach the join, whose exact probe rejects them.
type KeyFilter struct {
	Cols []string // the probe table's key columns, in join-key order
	Bits []uint64 // a power-of-two number of words
}

// keyFilterBits is the filter's size in bits per distinct build key.
const keyFilterBits = 16

// newKeyFilter builds the filter over the distinct keys of t, for the
// probe key columns cols.
func newKeyFilter(cols []string, t *joinTable) *KeyFilter {
	words := 1
	for words*64 < len(t.entries)*keyFilterBits {
		words <<= 1
	}
	f := &KeyFilter{Cols: cols, Bits: make([]uint64, words)}
	shift := f.shift()
	for i := range t.entries {
		h := hashKey(t.entries[i].key)
		f.Bits[h>>shift] |= keyBits(h)
	}
	return f
}

// shift maps a hash's high bits onto a word index.
func (f *KeyFilter) shift() uint { return uint(64 - bits.TrailingZeros(uint(len(f.Bits)))) }

// keyBits is the two-bit mask of hash h within its word.
func keyBits(h uint64) uint64 { return 1<<(h>>32&63) | 1<<(h>>38&63) }

// keep appends to dst the rows of sel whose key — chunk columns cols —
// may be a build key. The key hash accumulates in the scratch h one
// typed loop per key column, decoding frame-of-reference and dictionary
// codes in place. It returns both (possibly grown) buffers.
func (f *KeyFilter) keep(c *storage.EncChunk, cols []int, sel []int32, h []uint64, dst []int32) ([]uint64, []int32) {
	h = slices.Grow(h[:0], len(sel))[:len(sel)]
	clear(h)
	for j, col := range cols {
		mul, v := keyMuls[j], &c.Cols[col]
		switch v.Enc {
		case storage.EncFoR:
			for i, m := range sel {
				h[i] ^= uint64(v.Ref+int64(v.Codes[m])) * mul
			}
		case storage.EncDict:
			for i, m := range sel {
				h[i] ^= uint64(v.Dict.DecodeInt(v.Codes[m])) * mul
			}
		default:
			for i, m := range sel {
				h[i] ^= uint64(v.Ints[m]) * mul
			}
		}
	}
	shift := f.shift()
	for i, m := range sel {
		k := mixKey(h[i])
		if b := keyBits(k); f.Bits[k>>shift]&b == b {
			dst = append(dst, m)
		}
	}
	return h, dst
}

// QueryResult is the payload of EvQueryDone.
type QueryResult struct {
	Query core.QueryID
	// Rows is the result-row count.
	Rows int64
	// Cols and Batches carry the result set: pooled columnar batches, in
	// order, whose consumer frees them (or hands them to anydb.Rows,
	// which frees as the caller iterates). Truncated reports that the
	// sink capped the set at CollectCap rows.
	Cols      []string
	Batches   []*storage.Batch
	Truncated bool
}

// CollectCap bounds collected result sets; DefaultBatchRows is the
// target batch granularity of the data streams.
const (
	CollectCap       = 16384
	DefaultBatchRows = 1024
)

// OpDone is the payload of EvOpDone.
type OpDone struct {
	Query core.QueryID
	Label string // e.g. "join1/build", "join1/probe"
}

// Worker is the AC behavior executing installed operators; register it
// for EvInstallOp on every AC. The shared map holds the AC's live
// shared-scan cursors (sharedscan.go); it is only ever touched by the
// owning AC's handler, so it needs no lock.
type Worker struct {
	DB *storage.Database

	shared map[sharedKey]*sharedScan
	// evals counts predicate evaluations over a chunk (matchChunk calls):
	// the work that registrations with one filter list share.
	evals int
}

// OnEvent implements core.Behavior.
func (w *Worker) OnEvent(ctx core.Context, ac *core.AC, ev *core.Event) {
	switch spec := ev.Payload.(type) {
	case *SharedScanSpec:
		w.attachShared(ctx, ev, spec)
	case *sharedScan:
		spec.step(ctx, w)
	case *JoinSpec:
		newJoin(ctx, ac, spec)
		core.FreeEvent(ev)
	case *SinkSpec:
		newSink(ctx, ac, spec)
		core.FreeEvent(ev)
	default:
		panic(fmt.Sprintf("olap: unknown operator spec %T", ev.Payload))
	}
}

// joinState is a two-phase hash join bound to one AC.
type joinState struct {
	spec  *JoinSpec
	ht    *joinTable
	build []*storage.Batch
	built bool
	out   *storage.Batch

	// Key column indexes, resolved at each side's first batch (every
	// batch of a stream has the same layout).
	buildCols, probeCols []int

	// Probe scratch: the matches of the current output segment, as build
	// refs and probe rows, gathered into out at each emission point.
	mref []storage.RowRef
	mrow []int32
}

// maxJoinKeys bounds the equi-join key width (the planner enforces it).
const maxJoinKeys = 3

// joinKey is one build or probe key; columns past the key width are 0.
type joinKey [maxJoinKeys]int64

// keyOf reads the int key of row from the key columns cols.
func keyOf(batch *storage.Batch, row int, cols []int) joinKey {
	var k joinKey
	for i, c := range cols {
		k[i] = batch.Cols[c].Ints[row]
	}
	return k
}

// joinTable is the join's hash table: a flat open-addressing index over
// the distinct build keys, each heading an insertion-ordered chain of
// build-row refs. Slots pack the key hash's low half with the entry
// index + 1 (0 = empty), so a probe miss — the common case — usually
// rejects on the slot word alone, without touching the entry. Tables
// recycle through joinTables when their join closes, so a steady-state
// build inserts into warm arrays.
type joinTable struct {
	slots   []uint64
	shift   uint // 64 - log2(len(slots))
	entries []joinEntry
	refs    []joinRef
}

// joinEntry is one distinct build key and its ref chain (indexes into
// refs; tail makes appends O(1) while keeping insertion order).
type joinEntry struct {
	key        joinKey
	head, tail int32
}

// joinRef is one build row plus the next ref of its key's chain (-1 ends
// the chain).
type joinRef struct {
	at   storage.RowRef
	next int32
}

// keyMuls are hashKey's per-column multipliers.
var keyMuls = [maxJoinKeys]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9}

// hashKey mixes every key word (unused ones are 0) into 64 bits: find
// takes the slot from the high bits and the tag from the low half. The
// per-column products XOR together, so KeyFilter.keep can accumulate
// them one column at a time.
func hashKey(k joinKey) uint64 {
	return mixKey(uint64(k[0])*keyMuls[0] ^ uint64(k[1])*keyMuls[1] ^ uint64(k[2])*keyMuls[2])
}

// mixKey finalizes hashKey's column products.
func mixKey(h uint64) uint64 {
	h ^= h >> 29
	return h * 0xbf58476d1ce4e5b9
}

// find returns the entry index of key k (h = hashKey(k)) and its slot:
// the entry is -1 and the slot empty when k has no entry.
func (t *joinTable) find(k joinKey, h uint64) (int32, int) {
	tag := h << 32
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if s&^0xffffffff == tag {
			if e := int32(uint32(s)) - 1; t.entries[e].key == k {
				return e, i
			}
		}
	}
}

// insert appends build row at to key k's chain.
func (t *joinTable) insert(k joinKey, at storage.RowRef) {
	if 2*(len(t.entries)+1) > len(t.slots) {
		t.grow()
	}
	h := hashKey(k)
	e, slot := t.find(k, h)
	ref := int32(len(t.refs))
	t.refs = append(t.refs, joinRef{at: at, next: -1})
	if e >= 0 {
		en := &t.entries[e]
		t.refs[en.tail].next = ref
		en.tail = ref
		return
	}
	t.entries = append(t.entries, joinEntry{key: k, head: ref, tail: ref})
	t.slots[slot] = h<<32 | uint64(len(t.entries))
}

// grow doubles the slot array (sized for load <= 1/2) and re-indexes
// every entry. A recycled table's first grow takes the whole slot array
// it kept, so a build no larger than the table's last one re-indexes
// nothing.
func (t *joinTable) grow() {
	n := max(2*len(t.slots), 64)
	if len(t.slots) == 0 && cap(t.slots) > n {
		n = 1 << (bits.Len(uint(cap(t.slots))) - 1)
	}
	t.slots = zeroed(t.slots, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for e := range t.entries {
		h := hashKey(t.entries[e].key)
		_, slot := t.find(t.entries[e].key, h)
		t.slots[slot] = h<<32 | uint64(e+1)
	}
}

// lookup returns the head ref of key k's chain, or -1.
func (t *joinTable) lookup(k joinKey) int32 {
	if len(t.entries) == 0 {
		return -1
	}
	e, _ := t.find(k, hashKey(k))
	if e < 0 {
		return -1
	}
	return t.entries[e].head
}

// joinTables recycles join tables across queries.
var joinTables sync.Pool

// getJoinTable returns an empty table from the pool.
func getJoinTable() *joinTable {
	if t, _ := joinTables.Get().(*joinTable); t != nil {
		return t
	}
	return &joinTable{}
}

// release empties t, keeping its arrays, and returns it to the pool.
func (t *joinTable) release() {
	t.slots, t.entries, t.refs = t.slots[:0], t.entries[:0], t.refs[:0]
	joinTables.Put(t)
}

func newJoin(ctx core.Context, ac *core.AC, spec *JoinSpec) {
	j := &joinState{spec: spec, ht: getJoinTable()}
	// Consume the build side first; staged (beamed) batches replay
	// immediately inside Subscribe.
	ac.Subscribe(ctx, spec.Build, (*joinBuildSink)(j))
}

// keyCols resolves a join's key columns against a side's batch schema;
// keys must be int columns (the planner rejects others).
func keyCols(s *storage.Schema, names []string) []int {
	if len(names) > maxJoinKeys {
		panic(fmt.Sprintf("olap: %d join key columns, at most %d", len(names), maxJoinKeys))
	}
	cols := colIdx(s, names)
	for i, c := range cols {
		if s.Cols[c].Kind != storage.KInt {
			panic(fmt.Sprintf("olap: join key %s.%s is %s, not int", s.Name, names[i], s.Cols[c].Kind))
		}
	}
	return cols
}

// joinBuildSink and joinProbeSink give the two phases distinct OnData
// methods over the same state.
type joinBuildSink joinState

func (j *joinBuildSink) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	st := (*joinState)(j)
	costs := ctx.Costs()
	if msg.Batch != nil {
		buildCost := costs.HashBuildRow
		if msg.Prehashed {
			// DPI flows hash rows in flight (§4 co-processor).
			buildCost = buildCost * 3 / 4
		}
		if st.buildCols == nil {
			st.buildCols = keyCols(msg.Batch.Schema, st.spec.BuildKey)
		}
		// Build rows are materialized at probe time, so the batch must
		// live until the probe side closes.
		bi := int32(len(st.build))
		st.build = append(st.build, msg.Batch)
		for r := 0; r < msg.Batch.Len(); r++ {
			ctx.Charge(buildCost)
			st.ht.insert(keyOf(msg.Batch, r, st.buildCols), storage.RowRef{Batch: bi, Row: int32(r)})
		}
	}
	if msg.Last {
		st.built = true
		if st.spec.Notify != core.NoAC {
			done := core.GetEvent()
			done.Kind, done.Query = core.EvOpDone, st.spec.Query
			done.Payload = &OpDone{Query: st.spec.Query, Label: st.spec.Label + "/build"}
			ctx.Send(st.spec.Notify, done)
		}
		st.installProbeScans(ctx)
		// Now attach the probe side; beamed probe data replays here.
		ac.Subscribe(ctx, st.spec.Probe, (*joinProbeSink)(j))
	}
}

// installProbeScans starts the held probe-side scans, all sharing one
// filter over the now complete build keys. The filter is read-only from
// here on, so the scans' ACs read it without copies.
func (st *joinState) installProbeScans(ctx core.Context) {
	spec := st.spec
	if len(spec.ProbeScans) == 0 {
		return
	}
	f := newKeyFilter(spec.ProbeKey, st.ht)
	ctx.Charge(ctx.Costs().HashProbeRow * sim.Time(len(st.ht.entries)))
	for _, in := range spec.ProbeScans {
		in.Spec.Keys = f
		ev := core.GetEvent()
		ev.Kind, ev.Query, ev.Payload = core.EvInstallOp, spec.Query, in.Spec
		ev.Size = 8 * int64(len(f.Bits))
		ctx.Send(in.At, ev)
	}
}

type joinProbeSink joinState

func (j *joinProbeSink) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	st := (*joinState)(j)
	spec := st.spec
	costs := ctx.Costs()
	if msg.Batch != nil {
		probeCost := costs.HashProbeRow
		if msg.Prehashed {
			probeCost = probeCost * 3 / 4
		}
		if st.probeCols == nil {
			st.probeCols = keyCols(msg.Batch.Schema, spec.ProbeKey)
		}
		if st.out == nil {
			st.out = storage.GetBatch(outSchema(st, msg.Batch.Schema))
		}
		// Matches queue as (build ref, probe row) pairs and are gathered
		// into the output column by column at each emission point —
		// exactly where the row-at-a-time join emitted, after the last
		// match of the probe row that fills a batch, so batch boundaries
		// and output order (probe row order, then build insertion order)
		// are unchanged. Probe charges are paid in the same positions
		// relative to the emissions.
		probe, charged := msg.Batch, 0
		for r := 0; r < probe.Len(); r++ {
			ref := st.ht.lookup(keyOf(probe, r, st.probeCols))
			if ref < 0 {
				continue
			}
			for ; ref >= 0; ref = st.ht.refs[ref].next {
				st.mref = append(st.mref, st.ht.refs[ref].at)
				st.mrow = append(st.mrow, int32(r))
			}
			if st.out.Len()+len(st.mref) >= DefaultBatchRows {
				ctx.Charge(probeCost * sim.Time(r+1-charged))
				charged = r + 1
				st.gather(probe)
				st.emit(ctx, false)
			}
		}
		ctx.Charge(probeCost * sim.Time(probe.Len()-charged))
		st.gather(probe)
		// The gather copies, so the probe batch dies here.
		storage.FreeBatch(probe)
	}
	if msg.Last {
		st.emit(ctx, true)
		// The join is over: release the build side and the hash table.
		for _, b := range st.build {
			storage.FreeBatch(b)
		}
		st.ht.release()
		st.build, st.ht = nil, nil
		if spec.Notify != core.NoAC {
			done := core.GetEvent()
			done.Kind, done.Query = core.EvOpDone, spec.Query
			done.Payload = &OpDone{Query: spec.Query, Label: spec.Label + "/probe"}
			ctx.Send(spec.Notify, done)
		}
	}
}

// gather appends the queued matches against probe to the output batch.
func (st *joinState) gather(probe *storage.Batch) {
	st.out.AppendJoined(st.build, st.mref, probe, st.mrow)
	st.mref, st.mrow = st.mref[:0], st.mrow[:0]
}

// emit forwards the accumulated output batch (if any) as one pooled
// data message; the downstream consumer recycles both.
func (st *joinState) emit(ctx core.Context, last bool) {
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = st.spec.Out, st.spec.Query, last, st.spec.Producers
	if st.out != nil && st.out.Len() > 0 {
		msg.Batch = st.out
		if last {
			st.out = nil
		} else {
			st.out = storage.GetBatch(msg.Batch.Schema)
		}
	} else if last {
		storage.FreeBatch(st.out)
		st.out = nil
	}
	ctx.SendData(st.spec.To, msg)
}

func outSchema(st *joinState, probe *storage.Schema) *storage.Schema {
	if len(st.build) == 0 {
		return probe
	}
	return storage.ConcatSchema("join_out", st.build[0].Schema, probe)
}

func colIdx(s *storage.Schema, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.MustCol(n)
	}
	return out
}
