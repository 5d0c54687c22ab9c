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
// how many registrations ride the pass; each distinct filter list is
// compiled and evaluated once per chunk for all the registrations that
// carry it, and only the fold is per-query. Registrations carry private
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
// dictionary grows, so a whole pass pays O(dict) once, not O(rows).
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
		p.mode = modeBits
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
		p.bitsFor, p.bitsLen = d, 0
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
	spec  *SharedScanSpec
	set   *filterSet     // the compiled filters, shared with equal lists
	reads storage.ColSet // every chunk column the registration reads

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
	denseOK bool // hinted and not abandoned
}

// filterSet is one distinct filter list of a cursor's registrations,
// compiled once: every registration with an equal list points at it and
// reuses its matched rows for the chunk of the current step (valid while
// step == sharedScan.steps).
type filterSet struct {
	filters []Predicate
	preds   []compiledPred
	rows    []int32
	step    uint64
}

// sharedScan is the per-(table, partition) shared cursor state, owned
// by the partition's AC.
type sharedScan struct {
	key    sharedKey
	cursor int
	regs   []*scanReg
	ev     *core.Event // the driver continuation, re-sent per chunk

	// Predicate evaluation is shared across registrations, not just the
	// chunk fetch: registrations with equal filter lists share one
	// filterSet and so one matchChunk evaluation per chunk. steps
	// increments once per driven chunk (cursor positions repeat across
	// passes, so the step counter is the validity token); sets live as
	// long as the cursor does — one busy period.
	steps uint64
	sets  []*filterSet
}

// filterSet returns the cursor's set for filters, compiling a new one
// against schema for a list no registration has brought yet.
func (ss *sharedScan) filterSet(schema *storage.Schema, filters []Predicate) *filterSet {
	for _, s := range ss.sets {
		if slices.Equal(s.filters, filters) {
			return s
		}
	}
	s := &filterSet{filters: filters, preds: make([]compiledPred, len(filters))}
	for i, f := range filters {
		s.preds[i] = compilePred(schema, f)
	}
	ss.sets = append(ss.sets, s)
	return s
}

// attachShared registers spec with the shared cursor, creating (and
// starting) the driver when the cursor is idle. The install event is
// recycled as the driver continuation when one is needed.
func (w *Worker) attachShared(ctx core.Context, ev *core.Event, spec *SharedScanSpec) {
	t := w.DB.Partition(spec.Part).TableByID(spec.Table)
	r := &scanReg{spec: spec}
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
	r.set = ss.filterSet(t.Schema, spec.Filters)
	for _, p := range r.set.preds {
		r.reads |= 1 << p.col
	}
	for _, cols := range [][]int{r.outIdx, r.keyIdx, r.groupIdx, r.aggIdx} {
		for _, c := range cols {
			if c >= 0 { // aggIdx is -1 for COUNT(*)
				r.reads |= 1 << c
			}
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
			ss.steps++
		}
		// Registrations with equal filter lists share one evaluation of
		// this chunk.
		if f := r.set; f.step != ss.steps {
			f.rows = matchChunk(chunk, f.preds, f.rows)
			f.step = ss.steps
			w.evals++
		}
		if len(r.spec.Aggs) == 0 {
			r.foldStream(ctx, chunk, r.set.rows)
		} else {
			r.foldAgg(ctx, chunk, r.set.rows)
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

// matchChunk returns the row indexes of chunk c passing all preds,
// reusing sel: it starts from every row, and each predicate, prepared
// against the chunk's encoding, narrows the selection in place.
func matchChunk(c *storage.EncChunk, preds []compiledPred, sel []int32) []int32 {
	sel = sel[:0]
	for i := range int32(c.Len()) {
		sel = append(sel, i)
	}
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

// foldStream appends the matched rows, projected, to the registration's
// output batch, flushing at batch granularity. Rows gather straight from
// the encoded chunk in DefaultBatchRows-bounded slices of match. A join-key
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
		g.aggs[j].vals.Kind = r.partial.Cols[col].Kind
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
		b.AppendRows(g.viewOf(false), r.partCols, sel)
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
