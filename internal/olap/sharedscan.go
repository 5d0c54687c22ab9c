package olap

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// This file implements the shared analytical scan (SharedDB's "one
// cursor, many queries" applied to AnyDB's operator plane), the only
// scan operator: every planned query reads base tables through it.
//
// A SharedScanSpec does not start a private cursor. It REGISTERS with
// the per-(table, partition) shared cursor living on
// the owning AC: the registration compiles its predicates against the
// table schema once, joins the pass at the cursor's current chunk, and
// detaches after seeing every chunk exactly once (one full circle).
// One driver continuation event advances the cursor one columnar chunk
// at a time — the chunk fetch, the event-plane hop, and the shared
// per-row scan charge are paid once per chunk regardless of how many
// registrations ride the pass; only each registration's own predicate
// evaluation and fold are per-query. Registrations carry private
// result state (a projection batch or a grouped-aggregate table), so
// detaching is just emitting it downstream.
//
// Safety under live repartitioning: queries hold a submission-plane
// registration (queryMask) from registration to completion, and a
// partition move drains that mask before the storage handoff — so no
// shared-scan registration can exist while a partition moves, and the
// driver additionally stops (and drops its continuation) the moment
// its registration list is empty.

// AggFn selects an aggregate function.
type AggFn uint8

const (
	AggCount AggFn = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return fmt.Sprintf("AggFn(%d)", uint8(f))
}

// AggExpr is one aggregate over a source column (empty for COUNT(*)).
type AggExpr struct {
	Fn  AggFn
	Col string
}

// SharedScanSpec registers one query with the shared cursor of a
// partition's table. Two modes:
//
//   - streaming (len(Aggs) == 0): matching rows are projected onto Cols
//     and pushed into Out in pooled batches, feeding joins or a
//     collecting sink;
//   - aggregate pushdown (len(Aggs) > 0): matching rows fold into a
//     grouped partial-aggregate table private to the registration, and
//     one partial batch (layout: group columns, then per-aggregate
//     cells — AVG carries sum+count) is emitted when the pass
//     completes. The sink merges partials with MergePartials.
type SharedScanSpec struct {
	Query   core.QueryID
	Table   storage.TableID
	Part    int
	Filters []Predicate // AND-composed
	Cols    []string    // streaming projection
	GroupBy []string    // pushdown grouping
	Aggs    []AggExpr   // pushdown aggregates
	// DictGroups marks the grouping dictionary-eligible (planner hint:
	// no float group columns), letting the scan fold matched chunks
	// into a dense accumulator indexed by packed dictionary codes
	// instead of probing a map per row. The scan still validates per
	// chunk and falls back to the map path when chunks are not
	// dictionary-encoded or the code space outgrows the dense table.
	DictGroups bool
	Out        core.StreamID
	To         core.ACID
	Producers  int
	BatchRows  int
	// Keys, set on a hash join's held probe-side scan (streaming mode
	// only), drops the matched rows whose join key the filter rules out
	// before they are gathered.
	Keys *KeyFilter
}

// sharedKey addresses one shared cursor.
type sharedKey struct {
	table storage.TableID
	part  int
}

// compiledPred is a Predicate with its column resolved to a vector
// index, evaluated directly against encoded columnar chunks. Before a
// chunk is scanned, prepare translates the predicate into the chunk's
// encoding domain — a dictionary code, a code bitset, or a
// frame-of-reference delta bound — so the per-row test is an integer
// compare (or nothing at all, when the chunk-level answer is all/none).
type compiledPred struct {
	col    int
	kind   PredKind
	prefix string
	str    string
	minI   int64

	// Per-chunk prepared state (prepare): mode selects the row test;
	// code / bits / lo / hi are mode-specific operands.
	mode    predMode
	code    uint32        // modeEqCode/NeCode: dict code; modeEq/NeDelta: delta
	lo, hi  uint32        // modeGEDelta / modeLTDelta thresholds
	bits    []uint64      // modeBits: per-dictionary-code predicate results
	bitsFor *storage.Dict // dictionary bits was built against
	bitsLen int           // dictionary prefix covered by bits
}

// predMode is the prepared per-chunk evaluation strategy.
type predMode uint8

const (
	modeAll       predMode = iota // every row matches
	modeNone                      // no row matches
	modeEqCode                    // Codes[i] == code (dictionary)
	modeNeCode                    // Codes[i] != code (dictionary)
	modeBits                      // bits[Codes[i]] set (dictionary)
	modeGEDelta                   // Codes[i] >= lo (frame-of-reference)
	modeLTDelta                   // Codes[i] < hi (frame-of-reference)
	modeEqDelta                   // Codes[i] == code (frame-of-reference)
	modeNeDelta                   // Codes[i] != code (frame-of-reference)
	modeRawGE                     // Ints[i] >= minI
	modeRawLT                     // Ints[i] < minI
	modeRawEq                     // Ints[i] == minI
	modeRawNe                     // Ints[i] != minI
	modeRawEqStr                  // Strs[i] == str
	modeRawPrefix                 // Strs[i] starts with prefix
)

// prepare resolves the predicate against one chunk's column encoding.
func (p *compiledPred) prepare(c *storage.EncChunk) {
	if p.kind == PredNone {
		p.mode = modeAll
		return
	}
	v := &c.Cols[p.col]
	switch v.Enc {
	case storage.EncDict:
		p.prepareDict(v.Dict)
	case storage.EncFoR:
		p.prepareFoR(v.Ref)
	default:
		switch p.kind {
		case PredGEInt:
			p.mode = modeRawGE
		case PredLTInt:
			p.mode = modeRawLT
		case PredEqInt:
			p.mode = modeRawEq
		case PredNeInt:
			p.mode = modeRawNe
		case PredEqStr:
			p.mode = modeRawEqStr
		case PredPrefix:
			p.mode = modeRawPrefix
		default:
			panic("olap: unknown predicate kind")
		}
	}
}

// prepareDict compiles the predicate to dictionary-code membership:
// equality is one dictionary lookup (a miss means no chunk row can
// match), and prefix/range predicates become a bitset over the
// dictionary's codes — built once and extended incrementally as the
// dictionary grows, so a whole pass pays O(dict) once, not O(rows).
func (p *compiledPred) prepareDict(d *storage.Dict) {
	switch p.kind {
	case PredEqStr:
		if code, ok := d.LookupStr(p.str); ok {
			p.code, p.mode = code, modeEqCode
		} else {
			p.mode = modeNone
		}
	case PredEqInt:
		if code, ok := d.LookupInt(p.minI); ok {
			p.code, p.mode = code, modeEqCode
		} else {
			p.mode = modeNone
		}
	case PredNeInt:
		if code, ok := d.LookupInt(p.minI); ok {
			p.code, p.mode = code, modeNeCode
		} else {
			p.mode = modeAll
		}
	default: // PredPrefix, PredGEInt, PredLTInt
		p.extendBits(d)
		p.mode = modeBits
	}
}

// extendBits (re)builds the per-code predicate bitset for dictionary d,
// evaluating only codes assigned since the last call.
func (p *compiledPred) extendBits(d *storage.Dict) {
	n := d.Len()
	if p.bitsFor != d {
		p.bitsFor, p.bitsLen = d, 0
		p.bits = p.bits[:0]
	}
	for len(p.bits)*64 < n {
		p.bits = append(p.bits, 0)
	}
	for code := p.bitsLen; code < n; code++ {
		var ok bool
		switch p.kind {
		case PredPrefix:
			s := d.DecodeStr(uint32(code))
			ok = len(s) >= len(p.prefix) && s[:len(p.prefix)] == p.prefix
		case PredGEInt:
			ok = d.DecodeInt(uint32(code)) >= p.minI
		case PredLTInt:
			ok = d.DecodeInt(uint32(code)) < p.minI
		}
		if ok {
			p.bits[code>>6] |= 1 << (code & 63)
		}
	}
	p.bitsLen = n
}

// prepareFoR translates an int predicate into the chunk's delta domain
// (value = Ref + delta, delta in [0, 2³²)). Out-of-domain constants
// collapse to all/none at the chunk level.
func (p *compiledPred) prepareFoR(ref int64) {
	var diff uint64
	above := p.minI > ref
	if above {
		// Exact under two's-complement wraparound for any int64 pair.
		diff = uint64(p.minI) - uint64(ref)
	}
	switch p.kind {
	case PredGEInt:
		switch {
		case !above:
			p.mode = modeAll
		case diff > math.MaxUint32:
			p.mode = modeNone
		default:
			p.lo, p.mode = uint32(diff), modeGEDelta
		}
	case PredLTInt:
		switch {
		case !above:
			p.mode = modeNone
		case diff > math.MaxUint32:
			p.mode = modeAll
		default:
			p.hi, p.mode = uint32(diff), modeLTDelta
		}
	default: // PredEqInt, PredNeInt
		out := p.minI < ref || diff > math.MaxUint32
		if p.kind == PredEqInt {
			if out {
				p.mode = modeNone
			} else {
				p.code, p.mode = uint32(diff), modeEqDelta
			}
		} else {
			if out {
				p.mode = modeAll
			} else {
				p.code, p.mode = uint32(diff), modeNeDelta
			}
		}
	}
}

// matchAt tests row i of the prepared chunk column.
func (p *compiledPred) matchAt(v *storage.EncVec, i int) bool {
	switch p.mode {
	case modeAll:
		return true
	case modeNone:
		return false
	case modeEqCode:
		return v.Codes[i] == p.code
	case modeNeCode:
		return v.Codes[i] != p.code
	case modeBits:
		c := v.Codes[i]
		return p.bits[c>>6]&(1<<(c&63)) != 0
	case modeGEDelta:
		return v.Codes[i] >= p.lo
	case modeLTDelta:
		return v.Codes[i] < p.hi
	case modeEqDelta:
		return v.Codes[i] == p.code
	case modeNeDelta:
		return v.Codes[i] != p.code
	case modeRawGE:
		return v.Ints[i] >= p.minI
	case modeRawLT:
		return v.Ints[i] < p.minI
	case modeRawEq:
		return v.Ints[i] == p.minI
	case modeRawNe:
		return v.Ints[i] != p.minI
	case modeRawEqStr:
		return v.Strs[i] == p.str
	default: // modeRawPrefix
		s := v.Strs[i]
		return len(s) >= len(p.prefix) && s[:len(p.prefix)] == p.prefix
	}
}

// compilePred resolves pred against schema, validating kinds so a
// mis-typed predicate fails at registration, not mid-chunk.
func compilePred(schema *storage.Schema, pred Predicate) compiledPred {
	cp := compiledPred{kind: pred.Kind, prefix: pred.Prefix, str: pred.Str, minI: pred.MinI}
	if pred.Kind == PredNone {
		return cp
	}
	cp.col = schema.MustCol(pred.Col)
	kind := schema.Cols[cp.col].Kind
	switch pred.Kind {
	case PredPrefix, PredEqStr:
		if kind != storage.KStr {
			panic(fmt.Sprintf("olap: string predicate on %s column %s.%s", kind, schema.Name, pred.Col))
		}
	default:
		if kind != storage.KInt {
			panic(fmt.Sprintf("olap: int predicate on %s column %s.%s", kind, schema.Name, pred.Col))
		}
	}
	return cp
}

// scanReg is one query's registration with a shared cursor.
type scanReg struct {
	spec  *SharedScanSpec
	preds []compiledPred
	sig   string // canonical predicate signature, for match sharing

	// Pass window: the registration joined at some chunk and detaches
	// after `total` chunks (the chunk count at attach — chunks appended
	// later belong to later passes). next is the chunk it consumes
	// next; done counts consumed chunks.
	next, done, total int

	// Streaming mode.
	outIdx []int
	out    *storage.Batch

	// Join-key filtering (spec.Keys): the key columns' chunk indexes, and
	// scratch for the key hashes and the surviving rows.
	keyIdx  []int
	keyHash []uint64
	live    []int32

	// Aggregate-pushdown mode: the partial layout, the group and source
	// columns, and the group table.
	groupIdx []int
	aggIdx   []int // source column per aggregate; -1 for COUNT(*)
	partial  *storage.Schema
	partCols []int // the partial layout's view columns: the identity
	groups   *groupTable

	// Dense grouped-aggregate fast path (spec.DictGroups): group codes
	// pack into one table slot per combination — a bounds-checked array
	// index per row instead of a key map probe. Laid out at the first
	// dictionary-encoded chunk; abandoned (the table turns keyed) if a
	// chunk arrives with a different encoding or a code outgrows the
	// slack-padded dims.
	denseOK bool // hinted, enabled, and not abandoned
}

// groupedFastPath gates the dense grouped-aggregate path globally; the
// benchmark suite flips it off to measure the map-probe baseline.
var groupedFastPath atomic.Bool

func init() { groupedFastPath.Store(true) }

// SetGroupedAggFastPath toggles the dense grouped-aggregate fast path
// for newly registered scans and returns the previous setting. On by
// default; exists so benchmarks can pin either path.
func SetGroupedAggFastPath(on bool) bool { return groupedFastPath.Swap(on) }

// matchBuf caches one predicate signature's matched rows for the chunk
// of the current step (valid while step == sharedScan.steps).
type matchBuf struct {
	rows []int32
	step uint64
}

// sharedScan is the per-(table, partition) shared cursor state, owned
// by the partition's AC.
type sharedScan struct {
	key    sharedKey
	cursor int
	regs   []*scanReg
	ev     *core.Event // the driver continuation, re-sent per chunk

	// Predicate evaluation is shared across registrations, not just the
	// chunk fetch: all registrations whose filters have the same
	// canonical signature reuse one matchChunk evaluation per chunk.
	// steps increments once per driven chunk (cursor positions repeat
	// across passes, so the step counter is the validity token); buffers
	// live as long as the cursor does — one busy period.
	steps    uint64
	sigMatch map[string]*matchBuf
}

// attachShared registers spec with the shared cursor, creating (and
// starting) the driver when the cursor is idle. The install event is
// recycled as the driver continuation when one is needed.
func (w *Worker) attachShared(ctx core.Context, ev *core.Event, spec *SharedScanSpec) {
	t := w.DB.Partition(spec.Part).TableByID(spec.Table)
	r := &scanReg{spec: spec}
	r.preds = make([]compiledPred, 0, len(spec.Filters))
	for _, f := range spec.Filters {
		r.preds = append(r.preds, compilePred(t.Schema, f))
	}
	r.sig = predSignature(r.preds)
	if spec.BatchRows == 0 {
		spec.BatchRows = DefaultBatchRows
	}
	if len(spec.Aggs) == 0 {
		r.outIdx = make([]int, len(spec.Cols))
		outCols := make([]storage.Column, len(spec.Cols))
		for i, c := range spec.Cols {
			r.outIdx[i] = t.Schema.MustCol(c)
			outCols[i] = t.Schema.Cols[r.outIdx[i]]
		}
		r.out = storage.GetBatch(storage.NewSchema(t.Schema.Name+"_scan", outCols...))
		if spec.Keys != nil {
			r.keyIdx = keyCols(t.Schema, spec.Keys.Cols)
		}
	} else {
		r.groupIdx = colIdx(t.Schema, spec.GroupBy)
		r.aggIdx = make([]int, len(spec.Aggs))
		cols := make([]storage.Column, 0, len(spec.GroupBy)+2*len(spec.Aggs))
		for i := range spec.GroupBy {
			cols = append(cols, storage.Column{
				Name: fmt.Sprintf("g%d", i), Kind: t.Schema.Cols[r.groupIdx[i]].Kind,
			})
		}
		for j, a := range spec.Aggs {
			r.aggIdx[j] = -1
			srcKind := storage.KInt
			if a.Fn != AggCount {
				r.aggIdx[j] = t.Schema.MustCol(a.Col)
				srcKind = t.Schema.Cols[r.aggIdx[j]].Kind
			}
			switch a.Fn {
			case AggCount:
				cols = append(cols, storage.Column{Name: fmt.Sprintf("p%d", j), Kind: storage.KInt})
			case AggAvg:
				cols = append(cols,
					storage.Column{Name: fmt.Sprintf("p%d_s", j), Kind: storage.KFloat},
					storage.Column{Name: fmt.Sprintf("p%d_c", j), Kind: storage.KInt})
			default:
				cols = append(cols, storage.Column{Name: fmt.Sprintf("p%d", j), Kind: srcKind})
			}
		}
		r.partial = storage.NewSchema(t.Schema.Name+"_partial", cols...)
		r.partCols = identityCols(len(cols))
		r.armGroups()
	}

	r.total = t.NumColChunks()
	if r.total == 0 {
		// Empty table: the pass is already over; the install event dies.
		r.finish(ctx)
		core.FreeEvent(ev)
		return
	}

	key := sharedKey{table: spec.Table, part: spec.Part}
	ss := w.shared[key]
	if ss != nil {
		// Join the in-flight pass at the cursor's current position; the
		// install event is dead (a continuation is already circulating).
		r.next = ss.cursor
		if r.next >= r.total {
			r.next = 0
		}
		ss.regs = append(ss.regs, r)
		core.FreeEvent(ev)
		return
	}
	if w.shared == nil {
		w.shared = make(map[sharedKey]*sharedScan)
	}
	ss = &sharedScan{key: key, ev: ev}
	ss.regs = append(ss.regs, r)
	w.shared[key] = ss
	// Reuse the install event as the driver continuation.
	ev.Payload = ss
	ctx.Send(ctx.Self(), ev)
}

// step advances the shared cursor one chunk: every registration whose
// window includes the chunk evaluates its predicates over the columnar
// chunk and folds matches into its private state. Registrations that
// completed their circle detach; the driver stops when none remain.
func (ss *sharedScan) step(ctx core.Context, w *Worker) {
	if w.shared[ss.key] != ss {
		core.FreeEvent(ss.ev) // superseded or stopped: stale continuation, drop it
		return
	}
	if len(ss.regs) == 0 {
		delete(w.shared, ss.key)
		core.FreeEvent(ss.ev)
		return
	}
	t := w.DB.Partition(ss.key.part).TableByID(ss.key.table)
	m := 0
	for _, r := range ss.regs {
		if r.total > m {
			m = r.total
		}
	}
	if ss.cursor >= m {
		ss.cursor = 0
	}
	ci := ss.cursor
	costs := ctx.Costs()
	var chunk *storage.EncChunk
	for i := 0; i < len(ss.regs); {
		r := ss.regs[i]
		if r.next != ci {
			i++
			continue
		}
		if chunk == nil {
			// The chunk fetch and the per-row scan charge are shared:
			// paid once however many registrations ride this pass.
			chunk = t.ColChunk(ci)
			ctx.Charge(costs.ScanRow * sim.Time(chunk.Len()))
			ss.steps++
		}
		// Registrations with the same predicate signature share one
		// evaluation of this chunk.
		mb := ss.sigMatch[r.sig]
		if mb == nil {
			if ss.sigMatch == nil {
				ss.sigMatch = make(map[string]*matchBuf)
			}
			mb = &matchBuf{}
			ss.sigMatch[r.sig] = mb
		}
		if mb.step != ss.steps {
			mb.rows = matchChunk(chunk, r.preds, mb.rows)
			mb.step = ss.steps
			w.evals++
		}
		if len(r.spec.Aggs) == 0 {
			r.foldStream(ctx, chunk, mb.rows)
		} else {
			r.foldAgg(ctx, chunk, mb.rows)
		}
		r.done++
		r.next++
		if r.next >= r.total {
			r.next = 0
		}
		if r.done >= r.total {
			r.finish(ctx)
			ss.regs = append(ss.regs[:i], ss.regs[i+1:]...)
			continue
		}
		i++
	}
	ss.cursor = ci + 1
	if len(ss.regs) == 0 {
		delete(w.shared, ss.key)
		core.FreeEvent(ss.ev)
		return
	}
	ctx.Send(ctx.Self(), ss.ev)
}

// predSignature canonically encodes a compiled predicate list so
// registrations with identical filters can share match results. Columns
// are already resolved to indexes and predicates are AND-composed in
// plan order, so a byte-equal signature means row-equal matches.
func predSignature(preds []compiledPred) string {
	if len(preds) == 0 {
		return ""
	}
	buf := make([]byte, 0, 16*len(preds))
	for i := range preds {
		p := &preds[i]
		buf = strconv.AppendInt(buf, int64(p.kind), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(p.col), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, p.minI, 10)
		buf = append(buf, ':')
		buf = append(buf, p.prefix...)
		buf = append(buf, 0)
		buf = append(buf, p.str...)
		buf = append(buf, 0)
	}
	return string(buf)
}

// matchChunk returns the row indexes of chunk c passing all preds,
// reusing buf. Each predicate prepares against the chunk's encoding
// first, so chunk-level all/none answers skip row work entirely: the
// first selective predicate scans the full chunk, later ones filter the
// survivors in place.
func matchChunk(c *storage.EncChunk, preds []compiledPred, buf []int32) []int32 {
	buf = buf[:0]
	n := c.Len()
	dense := true // no selective predicate applied yet: buf is implicitly 0..n-1
	for pi := range preds {
		p := &preds[pi]
		p.prepare(c)
		switch p.mode {
		case modeAll:
			continue
		case modeNone:
			return buf[:0]
		}
		v := &c.Cols[p.col]
		if dense {
			for i := 0; i < n; i++ {
				if p.matchAt(v, i) {
					buf = append(buf, int32(i))
				}
			}
			dense = false
			continue
		}
		w := 0
		for _, m := range buf {
			if p.matchAt(v, int(m)) {
				buf[w] = m
				w++
			}
		}
		buf = buf[:w]
	}
	if dense {
		for i := 0; i < n; i++ {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// foldStream appends the matched rows, projected, to the registration's
// output batch, flushing at batch granularity. Rows gather straight from
// the encoded chunk in BatchRows-bounded slices of match. A join-key
// filter first narrows match to the rows the join can use.
func (r *scanReg) foldStream(ctx core.Context, chunk *storage.EncChunk, match []int32) {
	if len(match) == 0 {
		return
	}
	if r.spec.Keys != nil {
		ctx.Charge(ctx.Costs().HashProbeRow * sim.Time(len(match)))
		r.keyHash, r.live = r.spec.Keys.keep(chunk, r.keyIdx, match, r.keyHash, r.live[:0])
		match = r.live
		if len(match) == 0 {
			return
		}
	}
	n := len(match)
	for len(match) > 0 {
		k := min(len(match), r.spec.BatchRows-r.out.Len())
		r.out.AppendChunkRows(chunk, r.outIdx, match[:k])
		match = match[k:]
		if r.out.Len() >= r.spec.BatchRows {
			r.flush(ctx, false)
		}
	}
	if !ctx.Offloaded(r.spec.To) {
		ctx.Charge(ctx.Costs().PartitionRow * sim.Time(n))
	}
}

// armGroups gives the registration an empty group table from the pool,
// its accumulators typed after the partial layout's columns.
func (r *scanReg) armGroups() {
	g := getGroupTable(r.spec.Aggs, len(r.groupIdx))
	col := len(r.groupIdx)
	for j, a := range r.spec.Aggs {
		g.aggs[j].vals.Kind = r.partial.Cols[col].Kind
		col++
		if a.Fn == AggAvg {
			col++
		}
	}
	r.groups = g
	r.denseOK = r.spec.DictGroups && len(r.groupIdx) > 0 && groupedFastPath.Load()
}

// foldAgg folds the matched rows into the registration's group table:
// each row's slot first — its packed dictionary codes on the dense path,
// one map probe otherwise — then the row counts and one typed loop per
// aggregate.
func (r *scanReg) foldAgg(ctx core.Context, chunk *storage.EncChunk, match []int32) {
	if len(match) == 0 {
		return
	}
	ctx.Charge(ctx.Costs().AggRow * sim.Time(len(match)))
	g := r.groups
	if r.denseOK {
		n := 0
		if g.dense || g.initDense(chunk, r.groupIdx) {
			n = g.denseSlots(chunk, r.groupIdx, match)
			g.fold(chunk.Cols, r.aggIdx, match[:n], g.at)
			if n == len(match) {
				return
			}
		}
		// The dense path bowed out (a chunk not dictionary-encoded like the
		// first, or a code past the padded dims): the table turns keyed
		// and the rest of the pass, from this row on, folds by key.
		r.denseOK = false
		if g.dense {
			g.undense()
		}
		match = match[n:]
	}
	at := g.at[:0]
	for _, m := range match {
		at = append(at, g.slotOf(chunk.Cols, r.groupIdx, int(m)))
	}
	g.at = at
	g.fold(chunk.Cols, r.aggIdx, match, at)
}

// finish detaches the registration: streaming mode flushes the tail
// batch with the Last marker; pushdown mode gathers the groups' partial
// rows, column by column in slot order, into one batch, emits it with
// Last, and returns the table to the pool.
func (r *scanReg) finish(ctx core.Context) {
	if len(r.spec.Aggs) == 0 {
		r.flush(ctx, true)
		return
	}
	var b *storage.Batch
	g := r.groups
	if sel := g.touched(); len(sel) > 0 {
		b = storage.GetBatch(r.partial)
		b.AppendChunkRows(g.viewOf(false), r.partCols, sel)
	}
	g.release()
	r.groups = nil
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = r.spec.Out, r.spec.Query, true, r.spec.Producers
	msg.Batch = b
	ctx.SendData(r.spec.To, msg)
}

// identityCols returns the column list 0..n-1.
func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// flush emits the registration's accumulated streaming batch as one
// pooled data message. The batch scratch is recycled, not reallocated:
// the consumer frees each emitted batch at its death point, so
// steady-state flushing allocates nothing.
func (r *scanReg) flush(ctx core.Context, last bool) {
	if r.out.Len() == 0 && !last {
		return
	}
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = r.spec.Out, r.spec.Query, last, r.spec.Producers
	if r.out.Len() > 0 {
		msg.Batch = r.out
		if last {
			r.out = nil
		} else {
			r.out = storage.GetBatch(msg.Batch.Schema)
		}
	} else {
		storage.FreeBatch(r.out)
		r.out = nil
	}
	ctx.SendData(r.spec.To, msg)
}
