package olap

import (
	"fmt"
	"math"
	"slices"
	"strings"

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
// the owning AC: the registration joins the pass at the cursor's current
// chunk and detaches after seeing every chunk exactly once (one full
// circle). One driver continuation event advances the cursor one
// columnar chunk at a time — the chunk fetch, the event-plane hop, and
// the shared per-row scan charge are paid once per chunk regardless of
// how many registrations ride the pass. Registrations carry private
// result state (a projection batch or a grouped-aggregate table), so
// detaching is just emitting it downstream.
//
// Filters are shared through the Worker's selection memo (memo.go),
// within a pass and across passes alike. Each registration with a
// filter or a join's key filter looks its chunk up in the memo right
// after the fetch: an entry stored at a table stamp no older than the
// chunk's stamp over the columns the filters read
// (storage.Table.ChunkStamp) is the exact answer, and the chunk skips
// both the filters and the key filter. The first registration of a
// signature due at a chunk evaluates it and stores the entry, so every
// other registration of that signature in the pass hits it. Only a
// write to one of those columns, or a row added to or removed from the
// chunk, restamps it. The memo keeps a constant number of signatures
// per (table, partition), least recently used out, and virtual time
// charges a hit exactly like the evaluation it replaces.
//
// Whole passes are shared across time through the Worker's store of
// kept records (keep.go). A pass keeps the batches it sent, held, and the
// chunk versions it read as one record of its signature and shape
// (projection, or grouping and aggregates). A registration that attaches
// while no chunk it reads is stamped later than that record's version
// replays it: it sends the very batches the pass sent, each held once
// more for its consumer, with Last on the final one, and never rides the
// cursor; virtual time charges it the scan, probe and per-row work of
// that pass. Nothing is gathered, folded or copied. Otherwise it scans
// every chunk as it comes round, recording each chunk's version and each
// batch it sends, and its finish keeps the record.
//
// A partial's rows are in group order, the ascending order of the group
// values (compareKeys): the pass sorts its groups once, when it finishes
// the fold, and a replay sends the stored batch as it is, so on
// unchanged data nothing hashes or sorts. The sink merges the
// partitions' ordered runs without a key map and without a final sort
// (sink.go).
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
//     cells — AVG carries sum+count), its rows in group order, is
//     emitted when the pass completes. The sink merges partials with
//     MergePartials.
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
// encoding domain — a dictionary code range or code bitset, or a
// frame-of-reference delta range — so the per-row test is one integer
// compare (or nothing at all, when the chunk-level answer is all/none).
type compiledPred struct {
	Predicate
	col int
	in  bool // rows inside the range (or matching the string) are kept

	// Per-chunk prepared state (prepare): mode selects the row loop;
	// code/span or bits are its operands.
	mode       predMode
	code, span uint32        // modeCodes: the code range [code, code+span]
	bits       []uint64      // modeBits: per-dictionary-code results
	bitsFor    *storage.Dict // dictionary bits was built against
	bitsLen    int           // dictionary prefix covered by bits
	bitsSet    int           // codes of that prefix the predicate keeps
}

// predMode is the prepared per-chunk evaluation strategy.
type predMode uint8

const (
	modeAll   predMode = iota // every row is kept
	modeNone                  // no row is kept
	modeBits                  // bits[Codes[i]] set (dictionary)
	modeCodes                 // Codes[i] in the code range, or outside for PredOut
	modeInts                  // Ints[i] in [Lo, Hi], or outside for PredOut
	modeStrs                  // Strs[i] equals Str, or starts with it for PredPrefix
)

// prepare resolves the predicate against one chunk's column encoding.
// Dictionary equality is one lookup (a miss means no chunk row is
// inside), every other dictionary predicate a bitset over the
// dictionary's codes — built once and extended incrementally as the
// dictionary grows, so a whole pass pays O(dict) once, not O(rows) —
// that resolves the chunk at once when it keeps every code or none.
func (p *compiledPred) prepare(c *storage.EncChunk) {
	v := &c.Cols[p.col]
	ints := p.Kind >= PredIn
	switch {
	case ints && p.Lo > p.Hi:
		p.whole(false)
	case ints && p.Lo == math.MinInt64 && p.Hi == math.MaxInt64:
		p.whole(true)
	case v.Enc == storage.EncFoR:
		p.prepareFoR(v.Ref)
	case v.Enc != storage.EncDict && ints:
		p.mode = modeInts
	case v.Enc != storage.EncDict:
		p.mode = modeStrs
	case p.Kind == PredEqStr:
		code, ok := v.Dict.LookupStr(p.Str)
		p.codes(code, code, ok)
	case ints && p.Lo == p.Hi:
		code, ok := v.Dict.LookupInt(p.Lo)
		p.codes(code, code, ok)
	default:
		p.extendBits(v.Dict)
		switch p.bitsSet {
		case 0:
			p.whole(!p.in)
		case p.bitsLen:
			p.whole(p.in)
		default:
			p.mode = modeBits
		}
	}
}

// whole resolves the chunk at once: every row is inside the range (or
// matches the string), or every row is outside.
func (p *compiledPred) whole(inside bool) {
	p.mode = modeNone
	if inside == p.in {
		p.mode = modeAll
	}
}

// codes resolves the chunk to the code range [lo, hi]; ok false means
// no code of the chunk's encoding lies in the range.
func (p *compiledPred) codes(lo, hi uint32, ok bool) {
	if !ok {
		p.whole(false)
		return
	}
	p.mode, p.code, p.span = modeCodes, lo, hi-lo
}

// prepareFoR intersects [Lo, Hi] with the chunk's delta domain (value =
// ref + delta, delta in [0, 2³²)). The differences are exact in uint64
// under two's-complement wraparound for any int64 pair.
func (p *compiledPred) prepareFoR(ref int64) {
	if p.Hi < ref {
		p.whole(false)
		return
	}
	var lo uint64
	if p.Lo > ref {
		lo = uint64(p.Lo) - uint64(ref)
	}
	hi := min(uint64(p.Hi)-uint64(ref), math.MaxUint32)
	if lo == 0 && hi == math.MaxUint32 {
		p.whole(true)
		return
	}
	p.codes(uint32(lo), uint32(hi), lo <= math.MaxUint32)
}

// extendBits (re)builds the per-code predicate bitset for dictionary d,
// evaluating only codes assigned since the last call.
func (p *compiledPred) extendBits(d *storage.Dict) {
	n := d.Len()
	if p.bitsFor != d {
		p.bitsFor, p.bitsLen, p.bitsSet = d, 0, 0
		p.bits = p.bits[:0]
	}
	for len(p.bits)*64 < n {
		p.bits = append(p.bits, 0)
	}
	for code := p.bitsLen; code < n; code++ {
		var ok bool
		if p.Kind == PredPrefix {
			ok = strings.HasPrefix(d.DecodeStr(uint32(code)), p.Str)
		} else {
			x := d.DecodeInt(uint32(code))
			ok = (p.Lo <= x && x <= p.Hi) == p.in
		}
		if ok {
			p.bits[code>>6] |= 1 << (code & 63)
			p.bitsSet++
		}
	}
	p.bitsLen = n
}

// filter narrows sel in place to the rows of the prepared column v the
// predicate keeps: one typed loop per mode (modeNone keeps no row).
func (p *compiledPred) filter(v *storage.EncVec, sel []int32) []int32 {
	w := 0
	switch p.mode {
	case modeAll:
		return sel
	case modeBits:
		codes, bits := v.Codes, p.bits
		for _, r := range sel {
			if c := codes[r]; bits[c>>6]&(1<<(c&63)) != 0 {
				sel[w] = r
				w++
			}
		}
	case modeCodes:
		codes, lo, span, in := v.Codes, p.code, p.span, p.in
		for _, r := range sel {
			if (codes[r]-lo <= span) == in {
				sel[w] = r
				w++
			}
		}
	case modeInts:
		ints, lo, span, in := v.Ints, uint64(p.Lo), uint64(p.Hi)-uint64(p.Lo), p.in
		for _, r := range sel {
			if (uint64(ints[r])-lo <= span) == in {
				sel[w] = r
				w++
			}
		}
	case modeStrs:
		strs, str, prefix := v.Strs, p.Str, p.Kind == PredPrefix
		for _, r := range sel {
			if s := strs[r]; len(s) >= len(str) && (prefix || len(s) == len(str)) && s[:len(str)] == str {
				sel[w] = r
				w++
			}
		}
	}
	return sel[:w]
}

// compilePred resolves pred against schema, validating kinds so a
// mis-typed predicate fails at registration, not mid-chunk.
func compilePred(schema *storage.Schema, pred Predicate) compiledPred {
	cp := compiledPred{Predicate: pred, col: schema.MustCol(pred.Col), in: pred.Kind != PredOut}
	want := storage.KInt
	if pred.Kind < PredIn {
		want = storage.KStr
	}
	if kind := schema.Cols[cp.col].Kind; kind != want {
		panic(fmt.Sprintf("olap: %s predicate on %s column %s.%s", want, kind, schema.Name, pred.Col))
	}
	return cp
}

// scanReg is one query's registration with a shared cursor.
type scanReg struct {
	spec *SharedScanSpec
	// The output layout, its kept record's (keep.go), read-only.
	*scanLayout
	reads storage.ColSet // every chunk column the registration reads

	// Pass window: the registration joined at some chunk and detaches
	// after `total` chunks (the chunk count at attach — chunks appended
	// later belong to later passes). next is the chunk it consumes
	// next; done counts consumed chunks.
	next, done, total int

	// Streaming mode: the output batch being filled.
	out *storage.Batch

	// The selection memo's signature of Filters and Keys (memo.go).
	sig *memoSig

	// Aggregate-pushdown mode: the group table.
	groups *groupTable

	// Dense grouped-aggregate fast path (spec.DictGroups): group codes
	// pack into one table slot per combination — a bounds-checked array
	// index per row instead of a key map probe. Laid out at the first
	// dictionary-encoded chunk; abandoned (the table turns keyed) if a
	// chunk arrives with a different encoding or a code outgrows the
	// slack-padded dims.
	denseOK bool // hinted and not abandoned

	// The record the pass keeps at finish (keep.go): the recording of
	// each chunk's stamp over reads right after the scan and of the
	// batches sent, and the rows charged (kept).
	rec                   recorder
	scanned, probed, kept int
}

// scanLayout is a registration's output layout: the shape it lays out
// (the projection, or the grouping and aggregates); the output batches'
// schema — the projection (streaming) or the partial layout (pushdown)
// — the table columns the projection takes (outIdx), or the group and
// aggregate source columns (groupIdx, and aggIdx, -1 for COUNT(*)) and
// the partial layout's view columns (partCols, the identity), and the
// table columns all of these read. It follows from the table's schema
// and the output's shape alone, so it is derived once per kept shape,
// and every registration of the shape shares it.
type scanLayout struct {
	scanShape
	schema   *storage.Schema
	outIdx   []int
	groupIdx []int
	aggIdx   []int
	partCols []int
	uses     storage.ColSet
}

// scanShape is a scan output's shape besides its signature: the
// projection, or the grouping and aggregates.
type scanShape struct {
	proj, groupBy []string
	aggs          []AggExpr
}

// is reports whether a and b are one shape.
func (a *scanShape) is(b *scanShape) bool {
	return slices.Equal(a.proj, b.proj) && slices.Equal(a.groupBy, b.groupBy) && slices.Equal(a.aggs, b.aggs)
}

// newScanLayout derives the layout of the projection cols, or of the
// grouping groupBy and aggregates aggs when there are aggregates, over
// a table of schema ts.
func newScanLayout(ts *storage.Schema, cols, groupBy []string, aggs []AggExpr) *scanLayout {
	l := &scanLayout{scanShape: scanShape{slices.Clone(cols), slices.Clone(groupBy), slices.Clone(aggs)}}
	if len(aggs) == 0 {
		l.outIdx = colIdx(ts, cols)
		outCols := make([]storage.Column, len(cols))
		for i, c := range l.outIdx {
			outCols[i] = ts.Cols[c]
		}
		l.schema = storage.NewSchema(ts.Name+"_scan", outCols...)
	} else {
		l.groupIdx = colIdx(ts, groupBy)
		l.aggIdx = make([]int, len(aggs))
		out := make([]storage.Column, 0, len(groupBy)+2*len(aggs))
		for i, c := range l.groupIdx {
			out = append(out, storage.Column{Name: fmt.Sprintf("g%d", i), Kind: ts.Cols[c].Kind})
		}
		for j, a := range aggs {
			l.aggIdx[j] = -1
			srcKind := storage.KInt
			if a.Fn != AggCount {
				l.aggIdx[j] = ts.MustCol(a.Col)
				srcKind = ts.Cols[l.aggIdx[j]].Kind
			}
			switch a.Fn {
			case AggCount:
				out = append(out, storage.Column{Name: fmt.Sprintf("p%d", j), Kind: storage.KInt})
			case AggAvg:
				out = append(out,
					storage.Column{Name: fmt.Sprintf("p%d_s", j), Kind: storage.KFloat},
					storage.Column{Name: fmt.Sprintf("p%d_c", j), Kind: storage.KInt})
			default:
				out = append(out, storage.Column{Name: fmt.Sprintf("p%d", j), Kind: srcKind})
			}
		}
		l.schema = storage.NewSchema(ts.Name+"_partial", out...)
		l.partCols = identityCols(len(out))
	}
	for _, cols := range [][]int{l.outIdx, l.groupIdx, l.aggIdx} {
		for _, c := range cols {
			if c >= 0 { // aggIdx is -1 for COUNT(*)
				l.uses |= 1 << c
			}
		}
	}
	return l
}

// sharedScan is the per-(table, partition) shared cursor state, owned
// by the partition's AC.
type sharedScan struct {
	key    sharedKey
	cursor int
	regs   []*scanReg
	ev     *core.Event // the driver continuation, re-sent per chunk
}

// attachShared registers spec with the shared cursor, creating (and
// starting) the driver when the cursor is idle. The install event is
// recycled as the driver continuation when one is needed.
func (w *Worker) attachShared(ctx core.Context, ev *core.Event, spec *SharedScanSpec) {
	t := w.DB.Partition(spec.Part).TableByID(spec.Table)
	key := sharedKey{table: spec.Table, part: spec.Part}
	sig := w.signature(key, t.Schema, spec.Filters, spec.Keys)
	r := &scanReg{spec: spec, sig: sig, total: t.NumColChunks()}
	if w.replay(ctx, t, r) {
		core.FreeEvent(ev) // answered from the store: no pass
		return
	}
	if r.total == 0 {
		// Empty table: the pass is already over; the install event dies.
		r.finish(ctx, w)
		core.FreeEvent(ev)
		return
	}

	ss := w.shared[key]
	idle := ss == nil
	if idle {
		if w.shared == nil {
			w.shared = make(map[sharedKey]*sharedScan)
		}
		ss = &sharedScan{key: key, ev: ev}
		w.shared[key] = ss
	} else {
		// Join the in-flight pass at the cursor's current position.
		r.next = ss.cursor
		if r.next >= r.total {
			r.next = 0
		}
	}
	ss.regs = append(ss.regs, r)
	if !idle {
		core.FreeEvent(ev) // a continuation is already circulating
		return
	}
	// Reuse the install event as the driver continuation.
	ev.Payload = ss
	ctx.Send(ctx.Self(), ev)
}

// replay answers a registration from the Worker's kept output of its
// shape (keep.go) when that output is fresh: it charges the virtual time
// the pass would have, sends the kept batches by reference — each held
// once more, for the consumer to free — with Last on the final one (or
// Last alone when the pass sent none), and reports true. Otherwise it
// arms the registration to ride the cursor: an empty output batch or
// group table, and a recording. Either way the registration takes the
// layout of the kept shape, or derives it when none is kept.
func (w *Worker) replay(ctx core.Context, t *storage.Table, r *scanReg) bool {
	spec := r.spec
	k := w.find(&keptShape{sig: r.sig, scan: &scanShape{spec.Cols, spec.GroupBy, spec.Aggs}})
	if k != nil {
		r.scanLayout = k.layout
	} else {
		r.scanLayout = newScanLayout(t.Schema, spec.Cols, spec.GroupBy, spec.Aggs)
	}
	r.reads = r.sig.reads | r.uses
	if k != nil && k.fresh(t, r.total, r.reads) {
		costs := ctx.Costs()
		perRow := costs.AggRow
		if len(spec.Aggs) == 0 {
			perRow = 0
			if !ctx.Offloaded(spec.To) {
				perRow = costs.PartitionRow
			}
		}
		ctx.Charge(costs.ScanRow*sim.Time(k.scanned) + costs.HashProbeRow*sim.Time(k.probed) + perRow*sim.Time(k.rows))
		for i, b := range k.out {
			storage.HoldBatch(b)
			r.send(ctx, b, i == len(k.out)-1)
		}
		if len(k.out) == 0 {
			r.send(ctx, nil, true)
		}
		return true
	}
	r.scanned, r.probed, r.kept = 0, 0, 0
	r.rec.start(w)
	if len(spec.Aggs) == 0 {
		r.out = storage.GetBatch(r.schema)
	} else {
		r.armGroups()
	}
	return false
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
	// The chunk is fetched with the columns the registrations due at it
	// read: a column none of them reads is never re-encoded.
	var need storage.ColSet
	for _, r := range ss.regs {
		if r.next == ci {
			need |= r.reads
		}
	}
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
			chunk = t.ColChunkCols(ci, need)
			ctx.Charge(costs.ScanRow * sim.Time(chunk.Len()))
		}
		match, pre := r.selection(w, t, ci, chunk)
		if len(r.spec.Aggs) == 0 {
			r.foldStream(ctx, chunk, match, pre)
			w.work.gathered += len(match)
		} else {
			r.foldAgg(ctx, chunk, match)
			w.work.folds++
		}
		r.rec.version(r.total, ci, t.ChunkStamp(ci, r.reads))
		r.scanned += chunk.Len()
		r.kept += len(match)
		r.done++
		r.next++
		if r.next >= r.total {
			r.next = 0
		}
		if r.done >= r.total {
			r.finish(ctx, w)
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

// selection returns the rows of chunk ci, just fetched with the
// registration's reads, that its filters and key filter keep, and how
// many passed the filters alone. With neither, that is every row: the
// Worker's shared identity selection, which the folds only read. A
// valid memo entry answers at once; otherwise the filters evaluate
// straight into the chunk's entry, the key filter narrows it, and the
// entry is stamped.
func (r *scanReg) selection(w *Worker, t *storage.Table, ci int, chunk *storage.EncChunk) ([]int32, int) {
	s := r.sig
	if len(s.preds) == 0 && s.keys == nil {
		return w.identity(chunk.Len()), chunk.Len()
	}
	if ci < len(s.chunks) {
		if e := &s.chunks[ci]; t.ChunkStamp(ci, s.reads) <= e.stamp {
			return e.rows, e.pre
		}
	}
	for len(s.chunks) <= ci {
		s.chunks = append(s.chunks, memoEntry{})
	}
	e := &s.chunks[ci]
	e.rows = matchChunk(chunk, s.preds, e.rows)
	e.pre = len(e.rows)
	w.work.evals++
	if s.keys != nil && e.pre > 0 {
		e.rows = s.keys.keep(chunk, e.rows)
		w.work.keeps++
	}
	e.stamp = t.Stamp()
	return e.rows, e.pre
}

// matchChunk returns the row indexes of chunk c passing all preds,
// reusing sel: it starts from every row, and each predicate, prepared
// against the chunk's encoding, narrows the selection in place.
func matchChunk(c *storage.EncChunk, preds []compiledPred, sel []int32) []int32 {
	sel = identity(sel, c.Len())
	for i := range preds {
		if len(sel) == 0 {
			break
		}
		p := &preds[i]
		p.prepare(c)
		sel = p.filter(&c.Cols[p.col], sel)
	}
	return sel
}

// foldStream appends the kept rows, projected, to the registration's
// output batch, flushing at batch granularity. Rows gather straight from
// the encoded chunk in DefaultBatchRows-bounded slices of match. A join-key
// filter is charged a probe for each of the probed rows that passed the
// filters, whether the memo or keyScan.keep narrowed them.
func (r *scanReg) foldStream(ctx core.Context, chunk *storage.EncChunk, match []int32, probed int) {
	if r.spec.Keys != nil && probed > 0 {
		ctx.Charge(ctx.Costs().HashProbeRow * sim.Time(probed))
		r.probed += probed
	}
	if len(match) == 0 {
		return
	}
	n := len(match)
	for len(match) > 0 {
		k := min(len(match), DefaultBatchRows-r.out.Len())
		r.out.AppendRows(chunk.Cols, r.outIdx, match[:k])
		match = match[k:]
		if r.out.Len() >= DefaultBatchRows {
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
		g.aggs[j].vals.Kind = r.schema.Cols[col].Kind
		col++
		if a.Fn == AggAvg {
			col++
		}
	}
	r.groups = g
	r.denseOK = r.spec.DictGroups && len(r.groupIdx) > 0
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
	g.fold(chunk.Cols, r.aggIdx, match, g.slots(chunk.Cols, r.groupIdx, match))
}

// finish detaches the registration and keeps what it recorded.
// Streaming mode flushes the tail batch with the Last marker; pushdown
// mode gathers the groups' partial rows, column by column in group order
// (ordered), into one batch, emits it with Last, and returns the table to
// the pool.
func (r *scanReg) finish(ctx core.Context, w *Worker) {
	if len(r.spec.Aggs) == 0 {
		r.flush(ctx, true)
	} else {
		var b *storage.Batch
		g := r.groups
		if sel := g.ordered(); len(sel) > 0 {
			b = storage.GetBatch(r.schema)
			b.AppendRows(g.viewOf(false), r.partCols, sel)
			w.work.gathered += len(sel)
			r.rec.output(b)
		}
		g.release()
		r.groups = nil
		r.send(ctx, b, true)
	}
	if k := r.rec.take(); k != nil {
		k.shape = keptShape{sig: r.sig, scan: &r.scanLayout.scanShape}
		k.layout, k.scanned, k.probed, k.rows = r.scanLayout, r.scanned, r.probed, r.kept
		w.keep(k)
	}
}

// send emits b (nil for none) downstream as one pooled data message.
func (r *scanReg) send(ctx core.Context, b *storage.Batch, last bool) {
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = r.spec.Out, r.spec.Query, last, r.spec.Producers
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
// pooled data message, recorded first. The batch
// scratch is recycled, not reallocated: each holder frees the batch at
// its death point, so steady-state flushing allocates nothing.
func (r *scanReg) flush(ctx core.Context, last bool) {
	b := r.out
	if b.Len() == 0 {
		if !last {
			return
		}
		storage.FreeBatch(b)
		b = nil
	} else {
		r.rec.output(b)
	}
	r.out = nil
	if !last {
		r.out = storage.GetBatch(b.Schema)
	}
	r.send(ctx, b, last)
}
