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
	"math"
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

// JoinSpec instructs an AC to join (inner equi-join) two incoming
// streams; each match emits the build row's BuildOut columns followed by
// the probe row's ProbeOut columns. The build side is consumed entirely
// first (NeedClosed semantics); probe batches stream through afterwards
// — any probe data beamed early waits staged at the AC.
//
// When the build closes, the join takes its keys' box (KeyFilter). A
// build that ships only its key columns, and whose bitmap proves its
// keys distinct, needs no hash table: a probe row whose key the bitmap
// holds matches exactly one build row, whose cells are the probe row's
// own key cells, so the join forwards the probe row. Every other build —
// duplicate keys, non-key columns, a box past KeyBoxCap — is indexed in
// a hash table sized from its row count.
//
// A build stream that delivers exactly the batches an earlier join of the
// same build shape on the same AC consumed — the same held batches,
// which a shared scan's memo replay or a join's output replay hands out
// again — reuses that join's build (joinBuild): its box, bitmap, direct
// flag and table. A join on a reused build whose probe stream then
// delivers exactly the batches the last join of the same ProbeKey,
// BuildOut and ProbeOut on that build probed sends that join's kept
// output (joinOutput) again, by reference, instead of probing.
type JoinSpec struct {
	Query     core.QueryID
	Build     core.StreamID
	BuildKey  []string // join key columns in the build batch schema
	Probe     core.StreamID
	ProbeKey  []string
	Out       core.StreamID
	To        core.ACID
	Producers int
	// BuildOut and ProbeOut name the columns of each side the output
	// carries: the planner keeps only those a later operator reads.
	BuildOut, ProbeOut []string
	// Notify receives EvOpDone events at build completion and probe
	// completion (the harness's Figure 6 instrumentation).
	Notify core.ACID
	Label  string
	// ProbeScans are the probe side's shared-scan registrations when the
	// QO holds them back instead of installing them itself: the join
	// installs them once its build side is complete, each carrying the
	// KeyFilter of the build keys, so the scans drop the rows no build
	// key matches before gathering and shipping them (sideways
	// information passing). Empty when the probe scans run unfiltered.
	ProbeScans []ScanInstall
}

// ScanInstall is one held shared-scan registration and the AC (the
// partition's owner) it is installed at.
type ScanInstall struct {
	At   core.ACID
	Spec *SharedScanSpec
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
	// memos holds each (table, partition)'s selection memo and its
	// outputs (memo.go), signatures most recently used first. It
	// outlives the cursors.
	memos map[sharedKey][]*memoSig
	// builds and results are the last join build per build shape and the
	// last sink result per sink shape, most recently used first, at most
	// memoSigs of each (ops.go, sink.go): a join or sink that receives
	// exactly their batches again reuses them.
	builds  []*joinBuild
	results []*sinkResult
	work    workCounts
	// all is the identity selection 0..n-1 (identity): filled once to
	// storage.ColChunkRows, grown only for a longer one.
	all []int32
}

// workCounts is the work a Worker did and the work its memos spared it.
// evals counts predicate evaluations over a chunk (matchChunk calls):
// the work the memo shares among the registrations of one signature,
// within a pass and across passes. keeps counts keyScan.keep calls the
// same way, folds the chunks foldAgg folded, and gathered the rows the
// scans copied into the batches they sent: the work a replay saves.
// builds counts the join builds done and reusedBuilds those answered by
// the build kept from the same batches; replayedJoins and replayedSinks
// count the joins and sinks that sent a kept output or result instead of
// computing it.
type workCounts struct {
	evals, keeps, folds, gathered int
	builds, reusedBuilds          int
	replayedJoins, replayedSinks  int
}

// Release drops everything the Worker keeps between queries: its memo
// outputs' batches, and the join builds and sink results kept for reuse.
// Call it once the Worker's AC has stopped, after every query completed:
// a drained Close leaves no pooled batch outstanding.
func (w *Worker) Release() {
	w.releaseMemos()
	for _, b := range w.builds {
		b.unref()
	}
	for _, r := range w.results {
		r.unref()
	}
	w.builds, w.results = nil, nil
}

// identity returns the selection 0..n-1, a prefix of w.all. Its readers
// (the folds and Batch.AppendRows) only read it.
func (w *Worker) identity(n int) []int32 {
	if n > len(w.all) {
		w.all = identity(w.all, max(n, storage.ColChunkRows))
	}
	return w.all[:n]
}

// OnEvent implements core.Behavior.
func (w *Worker) OnEvent(ctx core.Context, ac *core.AC, ev *core.Event) {
	switch spec := ev.Payload.(type) {
	case *SharedScanSpec:
		w.attachShared(ctx, ev, spec)
	case *sharedScan:
		spec.step(ctx, w)
	case *JoinSpec:
		w.newJoin(ctx, ac, spec)
		core.FreeEvent(ev)
	case *SinkSpec:
		w.newSink(ctx, ac, spec)
		core.FreeEvent(ev)
	default:
		panic(fmt.Sprintf("olap: unknown operator spec %T", ev.Payload))
	}
}

// joinState is a two-phase join bound to one AC.
type joinState struct {
	spec  *JoinSpec
	w     *Worker // the AC's, keeping builds for reuse; nil keeps none
	ht    *joinTable
	build []*storage.Batch
	rows  int // build rows
	out   *storage.Batch

	// Key column indexes, resolved at each side's first batch (every
	// batch of a stream has the same layout).
	buildCols, probeCols []int

	// The build keys' box: its bounds (lo, and hi for the greatest
	// keys), spans and bitmap are set when the build closes, unless the
	// join reuses a kept build's. direct marks a distinct key-only
	// build, which the join answers from the bitmap alone; filtered
	// marks a probe side whose every row the exact filter already kept.
	box              keyBox
	hi               joinKey
	direct, filtered bool

	// The output: its schema, the build and probe columns it carries, and
	// (direct joins) the probe columns that stand in for all of them.
	outSchema  *storage.Schema
	bOut, pOut []int
	fromProbe  []int

	// Probe scratch: the matches of the current output segment, as build
	// refs and probe rows, gathered into out at each emission point.
	mref []storage.RowRef
	mrow []int32

	// Build reuse. kept is the Worker's build of this join's shape, whose
	// batches the build may turn out to be. built is the kept build the
	// join runs on — reused (reused set), or its own build kept for the
	// next join — and gives back at probe close.
	kept, built *joinBuild
	reused      bool

	// Output reuse, on a kept build. keep marks a join still keeping its
	// output: probes and outs are its probed and emitted batches so far,
	// each held, which it stores on built at probe close. back holds back
	// the probe batches of a join on a reused build while each is in the
	// kept output's list.
	keep         bool
	probes, outs []*storage.Batch
	back         holdBack
}

// holdBack is a stream consumer's hold-back against the kept list of
// input batches something it may send again was made from: a kept
// build's output, or a sink's kept result. While on, each delivered
// batch in the list is held — charged, not yet consumed. The first batch
// outside the list turns it off, and the consumer then consumes the held
// batches (drain), in arrival order, before that one. A stream that
// delivered exactly the list, all held back (all), is answered with what
// was kept.
type holdBack struct {
	on   bool
	held []*storage.Batch
}

// hold reports whether b is held back: the hold-back is on and b is in
// list. Otherwise it turns the hold-back off.
func (h *holdBack) hold(b *storage.Batch, list []*storage.Batch) bool {
	if h.on && slices.Contains(list, b) {
		h.held = append(h.held, b)
		return true
	}
	h.on = false
	return false
}

// all reports whether every delivered batch was held back and they are
// exactly the batches of list, in any order.
func (h *holdBack) all(list []*storage.Batch) bool {
	return h.on && sameBatches(h.held, list)
}

// drain turns the hold-back off and returns the held batches, in
// arrival order, for the consumer to consume or give back.
func (h *holdBack) drain() []*storage.Batch {
	h.on = false
	held := h.held
	h.held = h.held[:0]
	return held
}

// joinBuild is a join build a Worker keeps for the next join of its
// shape — the build key and the build batches' columns: the batches,
// each held, in arrival order (the table's row refs index them), the key
// box and its bitmap, the direct flag and the hash table. Joins running
// on it only read it; its table and bitmap are shared with each of them
// and with their held probe scans' KeyFilter. The table's row and offset
// scratch is the AC's, used within one handler turn. out is the output
// the last join on it that qualified kept (nil when none). refs counts
// the Worker's keep plus each join running on it; the last unref frees
// the holds, the kept output and recycles the table.
type joinBuild struct {
	key     []string
	schema  *storage.Schema
	batches []*storage.Batch
	cols    []int
	rows    int
	box     keyBox
	hi      joinKey
	direct  bool
	ht      *joinTable
	out     *joinOutput
	refs    int
}

// joinOutput is the output a join on a kept build made from one probe
// stream: the probe spec it ran under (two joins may share a build shape
// and project differently), its probe batches in arrival order and its
// output batches in emission order, each held. The build and these probe
// batches determine the output, and a held batch is never recycled, so a
// join on the same build whose probe stream delivers the same batches, in
// any order, may send this output instead of probing.
type joinOutput struct {
	probeKey, buildOut, probeOut []string
	probes, out                  []*storage.Batch
}

// is reports whether o was made under spec's probe key and projection.
func (o *joinOutput) is(spec *JoinSpec) bool {
	return slices.Equal(o.probeKey, spec.ProbeKey) && slices.Equal(o.buildOut, spec.BuildOut) &&
		slices.Equal(o.probeOut, spec.ProbeOut)
}

// free gives back o's holds on its probe and output batches.
func (o *joinOutput) free() {
	freeBatches(o.probes)
	freeBatches(o.out)
	o.probes, o.out = nil, nil
}

// freeBatches gives back one hold on each of batches.
func freeBatches(batches []*storage.Batch) {
	for _, b := range batches {
		storage.FreeBatch(b)
	}
}

// maxKept bounds the batches of a kept build, output or sink result:
// matching them (sameBatches) is quadratic.
const maxKept = 64

// buildOf returns the index in w.builds of the build for build key key
// over batches of schema s, or -1.
func (w *Worker) buildOf(key []string, s *storage.Schema) int {
	return slices.IndexFunc(w.builds, func(jb *joinBuild) bool { return slices.Equal(jb.key, key) && sameCols(jb.schema, s) })
}

// keptBuild returns the Worker's build for build key key over batches of
// schema s, or nil.
func (w *Worker) keptBuild(key []string, s *storage.Schema) *joinBuild {
	if w == nil {
		return nil
	}
	i := w.buildOf(key, s)
	if i < 0 {
		return nil
	}
	toFront(w.builds, i)
	return w.builds[0]
}

// sameCols reports whether schemas a and b name the same columns.
func sameCols(a, b *storage.Schema) bool {
	return a == b || a.Name == b.Name && slices.Equal(a.Cols, b.Cols)
}

// keepBuild keeps st's new build for the next join of its shape when the
// same batches can come again (reusable). It replaces the Worker's build
// of that shape and returns the kept build, which st runs on; nil when
// it keeps none.
func (w *Worker) keepBuild(st *joinState) *joinBuild {
	if !reusable(st.build) {
		return nil
	}
	jb := &joinBuild{key: st.spec.BuildKey, schema: st.build[0].Schema, batches: slices.Clone(st.build),
		cols: st.buildCols, rows: st.rows, box: st.box, hi: st.hi, direct: st.direct, ht: st.ht, refs: 2}
	for _, b := range jb.batches {
		storage.HoldBatch(b)
	}
	var old *joinBuild
	if w.builds, old = keepFront(w.builds, w.buildOf(jb.key, jb.schema), jb); old != nil {
		old.unref()
	}
	return jb
}

// reusable reports whether a consumer that keeps what it built from
// batches can meet the same batches again: there is at least one and at
// most maxKept, and each is shared — a memo holds it, and only a memo's
// replay hands a batch out twice.
func reusable(batches []*storage.Batch) bool {
	if len(batches) == 0 || len(batches) > maxKept {
		return false
	}
	for _, b := range batches {
		if !b.Shared() {
			return false
		}
	}
	return true
}

// sameBatches reports whether a, no batch twice, holds the batches of b:
// the same pointers, in any order. A held batch is never recycled, so
// the same pointer is the same immutable rows.
func sameBatches(a, b []*storage.Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if slices.Index(a, x) != i || !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// unref gives back one reference to jb; the last frees its holds on the
// batches and its kept output, and recycles its table.
func (jb *joinBuild) unref() {
	if jb.refs--; jb.refs > 0 {
		return
	}
	freeBatches(jb.batches)
	if jb.out != nil {
		jb.out.free()
	}
	jb.ht.release()
	jb.batches, jb.ht, jb.out = nil, nil, nil
}

// MaxJoinKeys bounds the equi-join key width (the planner enforces it).
const MaxJoinKeys = 3

// joinKey is one build or probe key; columns past the key width are 0.
type joinKey [MaxJoinKeys]int64

// keyOf reads the int key of row from the key columns cols.
func keyOf(batch *storage.Batch, row int, cols []int) joinKey {
	var k joinKey
	for i, c := range cols {
		k[i] = batch.Cols[c].Ints[row]
	}
	return k
}

// joinTable is a join's recycled build state: the key box's bitmap, row
// and offset scratch, and the hash table — a flat open-addressing index
// over the distinct build keys, each heading an insertion-ordered chain
// of build-row refs. Slots pack the key hash's low half with the entry
// index + 1 (0 = empty), so a probe miss — the common case — usually
// rejects on the slot word alone, without touching the entry. Tables
// recycle through joinTables when their join closes, so a steady-state
// build fills warm arrays.
type joinTable struct {
	bits    []uint64
	live    []int32
	off     []uint64
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

// hashKey mixes every key word (unused ones are 0) into 64 bits: find
// takes the slot from the high bits and the tag from the low half.
func hashKey(k joinKey) uint64 {
	h := uint64(k[0])*0x9e3779b97f4a7c15 ^ uint64(k[1])*0xc2b2ae3d27d4eb4f ^ uint64(k[2])*0x165667b19e3779f9
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

// index builds the hash table over every row of build, keyed by the
// columns cols. The slot array is sized from the row count n (load at
// most 1/2, at least 64 slots) before the first insert, so nothing
// re-indexes, and a recycled table zeroes only the slots this build
// uses, whatever size an earlier build left it.
func (t *joinTable) index(build []*storage.Batch, cols []int, n int) {
	size := 64
	for size < 2*n {
		size <<= 1
	}
	t.slots = zeroed(t.slots, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for bi, b := range build {
		for r := 0; r < b.Len(); r++ {
			t.insert(keyOf(b, r, cols), storage.RowRef{Batch: int32(bi), Row: int32(r)})
		}
	}
}

// insert appends build row at to key k's chain.
func (t *joinTable) insert(k joinKey, at storage.RowRef) {
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

// reset empties t, keeping its arrays.
func (t *joinTable) reset() {
	t.bits, t.slots, t.entries, t.refs = t.bits[:0], t.slots[:0], t.entries[:0], t.refs[:0]
}

// release empties t and returns it to the pool.
func (t *joinTable) release() {
	t.reset()
	joinTables.Put(t)
}

func (w *Worker) newJoin(ctx core.Context, ac *core.AC, spec *JoinSpec) {
	j := &joinState{spec: spec, w: w}
	// Consume the build side first; staged (beamed) batches replay
	// immediately inside Subscribe.
	ac.Subscribe(ctx, spec.Build, (*joinBuildSink)(j))
}

// keyCols resolves a join's key columns against a side's batch schema;
// keys must be int columns (the planner rejects others).
func keyCols(s *storage.Schema, names []string) []int {
	if len(names) > MaxJoinKeys {
		panic(fmt.Sprintf("olap: %d join key columns, at most %d", len(names), MaxJoinKeys))
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
	if b := msg.Batch; b != nil {
		buildCost := ctx.Costs().HashBuildRow
		if msg.Prehashed {
			// DPI flows hash rows in flight (§4 co-processor).
			buildCost = buildCost * 3 / 4
		}
		ctx.Charge(buildCost * sim.Time(b.Len()))
		if st.buildCols == nil {
			if st.kept = st.w.keptBuild(st.spec.BuildKey, b.Schema); st.kept != nil {
				st.buildCols = st.kept.cols
			} else {
				st.buildCols = keyCols(b.Schema, st.spec.BuildKey)
			}
		}
		// Build rows are materialized at probe time, so the batch must
		// live until the probe side closes.
		st.build = append(st.build, b)
		st.rows += b.Len()
	}
	if msg.Last {
		st.closeBuild()
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

// boundBox sets the key box's bounds to the least and greatest keys of the
// build batches.
func (st *joinState) boundBox() {
	for j, c := range st.buildCols {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, b := range st.build {
			for _, v := range b.Cols[c].Ints {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		st.box.lo[j], st.hi[j] = lo, hi
	}
}

// closeBuild completes the build side. When the build delivered exactly
// the batches of the kept build of its shape, the join reuses that
// build. Otherwise it bounds the key box, gives it a new generation,
// sets one bit per build row when the box fits KeyBoxCap (a bit set
// twice marks a duplicate key), then either marks the join direct —
// keys distinct and every build column a key column — or indexes the
// build in the hash table, and offers the build to the Worker to keep.
func (st *joinState) closeBuild() {
	if jb := st.kept; jb != nil && sameBatches(st.build, jb.batches) {
		st.reuse(jb)
		return
	}
	st.boundBox()
	st.box.gen = boxGens.Add(1)
	if st.ht == nil {
		st.ht = getJoinTable()
	}
	t, x := st.ht, &st.box
	for j := range st.spec.BuildKey {
		if st.rows == 0 {
			x.lo[j], st.hi[j] = 0, 0 // an empty build: the one-cell box, no bit set
		}
		x.span[j] = uint64(st.hi[j]) - uint64(x.lo[j])
	}
	n := len(st.spec.BuildKey)
	cells, fits := boxCells(x.span[:n])
	distinct := fits
	x.bits = nil
	if fits {
		x.stride = boxStrides(x.span[:n])
		t.bits = zeroed(t.bits, (cells+63)/64)
		for _, b := range st.build {
			t.live = identity(t.live, b.Len())
			_, t.off = x.cells(b, st.buildCols, t.live, t.off)
			for _, o := range t.off {
				w, m := o>>6, uint64(1)<<(o&63)
				distinct = distinct && t.bits[w]&m == 0
				t.bits[w] |= m
			}
		}
		x.bits = t.bits
	}
	st.direct = distinct && (st.rows == 0 || keyOnly(st.build[0].Schema, st.buildCols))
	if !st.direct {
		t.index(st.build, st.buildCols, st.rows)
	}
	if st.w != nil {
		st.w.work.builds++
		st.built = st.w.keepBuild(st)
		st.keep = st.built != nil
	}
}

// reuse makes the kept build jb this join's. The delivered batches are
// jb's own, so the join gives back its holds on them and runs on jb's
// list — in jb's order, which its table's row refs index — its box,
// bitmap, direct flag and table, all read-only.
func (st *joinState) reuse(jb *joinBuild) {
	freeBatches(st.build)
	st.build, st.ht, st.box, st.hi, st.direct = jb.batches, jb.ht, jb.box, jb.hi, jb.direct
	jb.refs++
	st.built, st.reused, st.keep, st.back.on = jb, true, true, true
	st.w.work.reusedBuilds++
}

// release ends the join once its probe side closed: it frees its holds
// on the build batches and recycles its table, leaving to the kept build
// it runs on whatever that build owns.
func (st *joinState) release() {
	if !st.reused {
		freeBatches(st.build)
	}
	if st.built != nil {
		st.built.unref()
	} else {
		st.ht.release()
	}
	st.build, st.ht, st.box.bits, st.built = nil, nil, nil, nil
}

// keyOnly reports whether every column of the build schema s is one of
// the key columns cols.
func keyOnly(s *storage.Schema, cols []int) bool {
	for c := range s.Cols {
		if !slices.Contains(cols, c) {
			return false
		}
	}
	return true
}

// installProbeScans starts the held probe-side scans, all sharing one
// filter over the now complete build keys. The filter is read-only from
// here on, so the scans' ACs read it without copies; its bitmap lives
// until the join's release.
func (st *joinState) installProbeScans(ctx core.Context) {
	spec := st.spec
	if len(spec.ProbeScans) == 0 {
		return
	}
	st.filtered = st.box.bits != nil
	f := st.box.filter(spec.ProbeKey)
	ctx.Charge(ctx.Costs().HashProbeRow * sim.Time(st.distinctKeys()))
	for _, in := range spec.ProbeScans {
		in.Spec.Keys = f
		ev := core.GetEvent()
		ev.Kind, ev.Query, ev.Payload = core.EvInstallOp, spec.Query, in.Spec
		ev.Size = 8 * int64(len(f.Bits)+2*len(f.Cols))
		ctx.Send(in.At, ev)
	}
}

// distinctKeys is the number of distinct build keys.
func (st *joinState) distinctKeys() int {
	if st.direct {
		return st.rows
	}
	return len(st.ht.entries)
}

type joinProbeSink joinState

func (j *joinProbeSink) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	st := (*joinState)(j)
	spec := st.spec
	if probe := msg.Batch; probe != nil {
		probeCost := ctx.Costs().HashProbeRow
		if msg.Prehashed {
			probeCost = probeCost * 3 / 4
		}
		if st.back.hold(probe, st.keptProbes()) {
			// Charged as the probe would be: a replay costs what a
			// fresh probe does.
			ctx.Charge(probeCost * sim.Time(probe.Len()))
		} else {
			st.drain(ctx)
			st.join(ctx, probe, probeCost)
		}
	}
	if msg.Last {
		if o := st.keptOutput(); o != nil && st.back.all(o.probes) {
			st.replay(ctx, o)
		} else {
			st.drain(ctx)
			st.emit(ctx, true)
			st.keepOutput()
		}
		st.release()
		// Both input streams are over: drop their state, which would
		// otherwise keep the join alive.
		ac.DropStream(spec.Build)
		ac.DropStream(spec.Probe)
		if spec.Notify != core.NoAC {
			done := core.GetEvent()
			done.Kind, done.Query = core.EvOpDone, spec.Query
			done.Payload = &OpDone{Query: spec.Query, Label: spec.Label + "/probe"}
			ctx.Send(spec.Notify, done)
		}
	}
}

// join probes one batch and gives back its hold on it, or, while the
// join keeps its output, keeps the hold for the stored output; a batch
// that cannot come again (not Shared), or one past maxKept, ends the
// keeping.
func (st *joinState) join(ctx core.Context, probe *storage.Batch, probeCost sim.Time) {
	if st.probeCols == nil {
		st.probeCols = keyCols(probe.Schema, st.spec.ProbeKey)
	}
	switch {
	case st.rows == 0:
		// An empty build matches nothing.
		ctx.Charge(probeCost * sim.Time(probe.Len()))
	case st.direct:
		st.forward(ctx, probe, probeCost)
	default:
		st.probe(ctx, probe, probeCost)
	}
	if st.keep && (!probe.Shared() || len(st.probes) == maxKept) {
		st.dropOutput()
	}
	if st.keep {
		st.probes = append(st.probes, probe)
	} else {
		// The gathers copy, so the probe batch dies here.
		storage.FreeBatch(probe)
	}
}

// keptOutput returns the output kept on the build the join runs on when
// it was made under the join's probe spec, or nil.
func (st *joinState) keptOutput() *joinOutput {
	if st.built == nil || st.built.out == nil || !st.built.out.is(st.spec) {
		return nil
	}
	return st.built.out
}

// keptProbes returns the probe batches of the kept output (keptOutput),
// the list the join holds its probe batches back against; nil when none.
func (st *joinState) keptProbes() []*storage.Batch {
	if o := st.keptOutput(); o != nil {
		return o.probes
	}
	return nil
}

// drain ends the hold-back: it probes the held batches, in arrival
// order, their charge already paid.
func (st *joinState) drain(ctx core.Context) {
	for _, b := range st.back.drain() {
		st.join(ctx, b, 0)
	}
}

// replay answers the probe stream with the kept output o: it gives back
// its holds on the held probe batches, which are o's own, and sends o's
// output batches, each held once more for its consumer, the last with
// the end of stream (an empty output sends the end of stream alone).
func (st *joinState) replay(ctx core.Context, o *joinOutput) {
	freeBatches(st.back.drain())
	if len(o.out) == 0 {
		st.send(ctx, nil, true)
	}
	for i, b := range o.out {
		storage.HoldBatch(b)
		st.send(ctx, b, i == len(o.out)-1)
	}
	st.w.work.replayedJoins++
}

// keepOutput stores the output on the kept build the join ran on when
// the join still keeps it and its probe batches can come again
// (reusable), replacing the output kept there; otherwise it gives back
// the holds it took.
func (st *joinState) keepOutput() {
	if !st.keep || !reusable(st.probes) {
		st.dropOutput()
		return
	}
	jb := st.built
	if jb.out != nil {
		jb.out.free()
	}
	spec := st.spec
	jb.out = &joinOutput{probeKey: spec.ProbeKey, buildOut: spec.BuildOut, probeOut: spec.ProbeOut,
		probes: st.probes, out: st.outs}
	st.probes, st.outs, st.keep = nil, nil, false
}

// dropOutput stops keeping the output: it gives back the holds taken on
// the probed and emitted batches. The emitted batches stay valid for
// their consumers, who hold them too.
func (st *joinState) dropOutput() {
	freeBatches(st.probes)
	freeBatches(st.outs)
	st.probes, st.outs, st.keep = nil, nil, false
}

// probe joins one probe batch through the hash table. Matches queue as
// (build ref, probe row) pairs and are gathered into the output column
// by column at each emission point: after the last match of the probe
// row that fills a batch, so batch boundaries and output order (probe
// row order, then build insertion order) follow the probe. Probe charges
// are paid in the same positions relative to the emissions.
func (st *joinState) probe(ctx core.Context, probe *storage.Batch, probeCost sim.Time) {
	st.arm(probe.Schema)
	charged := 0
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
}

// forward joins one probe batch of a direct join: the rows whose key the
// bitmap holds — every row, when the held scans' exact filter already
// kept only those — each match one build row, so their projected cells
// append to the output with no hash table. Emission points and charges
// fall where probe puts them.
func (st *joinState) forward(ctx core.Context, probe *storage.Batch, probeCost sim.Time) {
	st.arm(probe.Schema)
	t := st.ht
	t.live = identity(t.live, probe.Len())
	rows := t.live
	if !st.filtered {
		rows, t.off = st.box.cells(probe, st.probeCols, rows, t.off)
		w := 0
		for i, r := range rows {
			if o := t.off[i]; st.box.bits[o>>6]&(1<<(o&63)) != 0 {
				rows[w] = r
				w++
			}
		}
		rows = rows[:w]
	}
	charged := 0
	for len(rows) > 0 && st.out.Len()+len(rows) >= DefaultBatchRows {
		k := DefaultBatchRows - st.out.Len()
		r := int(rows[k-1])
		ctx.Charge(probeCost * sim.Time(r+1-charged))
		charged = r + 1
		st.out.AppendRows(probe.Cols, st.fromProbe, rows[:k])
		rows = rows[k:]
		st.emit(ctx, false)
	}
	ctx.Charge(probeCost * sim.Time(probe.Len()-charged))
	st.out.AppendRows(probe.Cols, st.fromProbe, rows)
}

// arm resolves the output layout at the first probe batch — the build
// and probe columns it carries and, for a direct join, the probe column
// each build key column copies — and draws the output batch.
func (st *joinState) arm(probe *storage.Schema) {
	if st.outSchema == nil {
		bs := st.build[0].Schema
		st.bOut, st.pOut = colIdx(bs, st.spec.BuildOut), colIdx(probe, st.spec.ProbeOut)
		st.outSchema = storage.ConcatSchema("join_out", project(bs, st.bOut), project(probe, st.pOut))
		if st.direct {
			st.fromProbe = make([]int, 0, len(st.bOut)+len(st.pOut))
			for _, c := range st.bOut {
				st.fromProbe = append(st.fromProbe, st.probeCols[slices.Index(st.buildCols, c)])
			}
			st.fromProbe = append(st.fromProbe, st.pOut...)
		}
	}
	if st.out == nil {
		st.out = storage.GetBatch(st.outSchema)
	}
}

// project returns the schema of columns cols of s, under s's name.
func project(s *storage.Schema, cols []int) *storage.Schema {
	out := make([]storage.Column, len(cols))
	for i, c := range cols {
		out[i] = s.Cols[c]
	}
	return storage.NewSchema(s.Name, out...)
}

// gather appends the queued matches against probe to the output batch.
func (st *joinState) gather(probe *storage.Batch) {
	st.out.AppendJoined(st.build, st.bOut, st.mref, probe, st.pOut, st.mrow)
	st.mref, st.mrow = st.mref[:0], st.mrow[:0]
}

// emit forwards the accumulated output batch (if any) as one pooled
// data message; the downstream consumer recycles both. A join keeping
// its output holds the batch first.
func (st *joinState) emit(ctx core.Context, last bool) {
	var b *storage.Batch
	if st.out != nil && st.out.Len() > 0 {
		b = st.out
		if last {
			st.out = nil
		} else {
			st.out = storage.GetBatch(b.Schema)
		}
		if st.keep && len(st.outs) == maxKept {
			st.dropOutput()
		}
		if st.keep {
			storage.HoldBatch(b)
			st.outs = append(st.outs, b)
		}
	} else if last {
		storage.FreeBatch(st.out)
		st.out = nil
	}
	st.send(ctx, b, last)
}

// send sends batch b (nil: none) on the join's output stream.
func (st *joinState) send(ctx core.Context, b *storage.Batch, last bool) {
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = st.spec.Out, st.spec.Query, last, st.spec.Producers
	msg.Batch = b
	ctx.SendData(st.spec.To, msg)
}

func colIdx(s *storage.Schema, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.MustCol(n)
	}
	return out
}
