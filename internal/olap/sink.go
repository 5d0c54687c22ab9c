package olap

import (
	"cmp"
	"slices"
	"strings"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// SinkSpec terminates a planned query: it consumes one stream (scan
// partials, scan projections, or join output), optionally folds it
// through a grouped aggregation, applies ORDER BY / LIMIT, and reports
// the result batches via EvQueryDone. One sink shape serves every plan
// the general planner emits:
//
//   - MergePartials: the stream carries partial-aggregate batches in
//     the shared-scan partial layout (group columns, then aggregate
//     cells), each one run in group order; the sink keeps the runs
//     until the stream closes, then merges them, k ways at once, into
//     a result already in group order — the distributed-aggregation
//     combine step, with no key map and no sort.
//   - Aggs without MergePartials: the stream carries raw rows (join
//     output); the sink folds them into group accumulators directly.
//   - No Aggs: plain collection of projected rows (capped at
//     CollectCap).
//
// The sink's shape is every field but Query, In and Notify. A sink keeps
// its result as a record of its Worker (keep.go). A stream that delivers
// exactly the input batches of the kept result of its shape — held
// batches, which a shared scan's memo replay or a join's output replay
// hands out again — is answered with that result, sent again by
// reference: no fold, merge, sort or gather, and no result schema.
type SinkSpec struct {
	Query core.QueryID
	In    core.StreamID

	GroupBy []string // grouping columns (raw fold: stream schema names)
	Aggs    []AggExpr
	// MergePartials: the stream's batches are partials whose rows are in
	// group order (every shared-scan pushdown emits them so), merged as
	// ordered runs when the stream closes.
	MergePartials bool
	Cols          []string // collect-mode projection (stream schema names)

	// Output shape: one entry per result column, in SELECT order.
	// OutSrc maps each result column onto the sink's internal layout
	// (group values first, then one finalized value per aggregate); it
	// is nil in collect mode, where Cols already fixes the order.
	OutCols  []string
	OutKinds []storage.Kind
	OutSrc   []int

	OrderBy []OrderKey
	Limit   int // -1: no limit

	Notify core.ACID
}

// OrderKey is one ORDER BY term, indexing the result columns.
type OrderKey struct {
	Col  int
	Desc bool
}

// sameShape reports whether sinks a and b make the same result from the
// same input batches: every field but Query, In and Notify is equal.
func sameShape(a, b *SinkSpec) bool {
	return a.MergePartials == b.MergePartials && a.Limit == b.Limit &&
		slices.Equal(a.GroupBy, b.GroupBy) && slices.Equal(a.Aggs, b.Aggs) && slices.Equal(a.Cols, b.Cols) &&
		slices.Equal(a.OutCols, b.OutCols) && slices.Equal(a.OutKinds, b.OutKinds) &&
		slices.Equal(a.OutSrc, b.OutSrc) && slices.Equal(a.OrderBy, b.OrderBy)
}

// sinkState accumulates one query's result: a group table when the
// query aggregates, otherwise one batch of collected rows.
type sinkState struct {
	spec      *SinkSpec
	w         *Worker         // the AC's, keeping results for reuse
	schema    *storage.Schema // the result's, set when the sink first gathers
	groups    *groupTable     // drawn at the first fold or run
	rows      *storage.Batch
	truncated bool

	// Result reuse. back holds back the delivered batches against the
	// Worker's result of the sink's shape at install; rec records the
	// consumed batches and the result for the result the sink keeps.
	back holdBack
	rec  recorder

	// Column resolution against the stream's batch schema (raw fold and
	// collect), cached per schema.
	resolved *storage.Schema
	groupIdx []int
	aggIdx   []int
	projIdx  []int

	// Finalize scratch: the result rows' permutation and, per result
	// row, its position before the ORDER BY sort.
	sel, pos []int32
}

func (w *Worker) newSink(ctx core.Context, ac *core.AC, spec *SinkSpec) {
	s := &sinkState{}
	s.open(w, spec)
	ac.Subscribe(ctx, spec.In, s)
}

// open readies s to run spec on w. When w keeps a result of spec's
// shape, s holds back against it, and computes under its schema.
func (s *sinkState) open(w *Worker, spec *SinkSpec) {
	s.spec, s.w, s.rec.on = spec, w, true
	if k := w.find(&keptShape{sink: *spec}); k != nil {
		s.back.open(k)
		s.schema = k.schema
	}
}

// sinkGroups returns a pooled group table for spec's aggregation. Each
// accumulator takes its aggregate's result kind, recovered from its
// SELECT slot (every aggregate came from a select item, so one exists);
// AVG accumulates a float sum.
func sinkGroups(spec *SinkSpec) *groupTable {
	g := getGroupTable(spec.Aggs, len(spec.GroupBy))
	base := len(spec.GroupBy)
	for i, src := range spec.OutSrc {
		if src >= base {
			g.aggs[src-base].vals.Kind = spec.OutKinds[i]
		}
	}
	for j, a := range spec.Aggs {
		if a.Fn == AggAvg {
			g.aggs[j].vals.Kind = storage.KFloat
		}
	}
	return g
}

// OnData charges each batch as the sink's work on it, whether it is
// consumed or held back against the kept result; at the end of the
// stream the sink reports its result.
func (s *sinkState) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	if b := msg.Batch; b != nil {
		ctx.Charge(ctx.Costs().AggRow * sim.Time(b.Len()))
		if !s.back.hold(b) {
			for _, h := range s.back.drain() {
				s.consume(h)
			}
			s.consume(b)
		}
	}
	if msg.Last {
		batches, rows := s.result(nil)
		s.report(ctx, ac, batches, rows)
	}
}

// consume takes one input batch: an ordered run, kept until the stream
// closes and freed with the table, or rows folded or collected at once,
// after which the sink gives the batch back. While the sink keeps its
// result it records b first.
func (s *sinkState) consume(b *storage.Batch) {
	s.rec.input(b)
	if s.spec.MergePartials {
		g := s.table()
		g.runs = append(g.runs, b)
		return
	}
	sel := s.w.identity(b.Len())
	if len(s.spec.Aggs) > 0 {
		s.foldRaw(b, sel)
	} else {
		s.collect(b, sel)
	}
	storage.FreeBatch(b)
}

// table returns the sink's group table, drawn from the pool at first use.
func (s *sinkState) table() *groupTable {
	if s.groups == nil {
		s.groups = sinkGroups(s.spec)
	}
	return s.groups
}

// result closes the sink's input and appends its result batches to
// batches, returning them and the row count. When the stream delivered
// exactly the kept result's input batches, all held back, the sink
// appends the kept result batches (holdBack.replay). Otherwise it
// consumes the held batches and finalizes. Either way it gives back its
// reference to the kept result.
func (s *sinkState) result(batches []*storage.Batch) ([]*storage.Batch, int) {
	defer s.back.close()
	if s.back.hit() {
		k := s.back.k
		s.truncated = k.truncated
		s.w.work.replayedSinks++
		return append(batches, s.back.replay()...), k.rows
	}
	for _, b := range s.back.drain() {
		s.consume(b)
	}
	return s.finalize(batches)
}

// mergePartials merges the partial batches (shared-scan partial layout),
// each one ordered run: mergeRuns gives every row the slot of its group,
// then each run's aggregates merge in one typed loop per partial column,
// driven by the run's slots. Every COUNT and AVG count column of a
// partial row carries the same row count, so the first one feeds the
// table's counts.
func (s *sinkState) mergePartials() {
	g := s.groups
	g.mergeRuns(len(s.spec.GroupBy))
	for r, b := range g.runs {
		g.sel = identity(g.sel, b.Len())
		sel, at := g.sel, g.runAt[r]
		col, counted := len(s.spec.GroupBy), false
		for j, a := range s.spec.Aggs {
			switch a.Fn {
			case AggCount:
				if !counted {
					g.addCounts(b.Cols[col].Ints, at)
					counted = true
				}
				col++
			case AggAvg:
				g.aggs[j].add(&b.Cols[col], sel, at)
				if !counted {
					g.addCounts(b.Cols[col+1].Ints, at)
					counted = true
				}
				col += 2
			default:
				g.aggs[j].add(&b.Cols[col], sel, at)
				col++
			}
		}
	}
}

// foldRaw folds the rows sel of raw stream batch b (join output) into
// the group table.
func (s *sinkState) foldRaw(b *storage.Batch, sel []int32) {
	if s.resolved != b.Schema {
		s.groupIdx = colIdx(b.Schema, s.spec.GroupBy)
		s.aggIdx = make([]int, len(s.spec.Aggs))
		for j, a := range s.spec.Aggs {
			s.aggIdx[j] = -1
			if a.Fn != AggCount {
				s.aggIdx[j] = b.Schema.MustCol(a.Col)
			}
		}
		s.resolved = b.Schema
	}
	g := s.table()
	g.fold(b.Cols, s.aggIdx, sel, g.slots(b.Cols, s.groupIdx, sel))
}

// collect appends the projected rows sel of b (no aggregation), up to
// CollectCap. A column may be selected more than once.
func (s *sinkState) collect(b *storage.Batch, sel []int32) {
	if s.resolved != b.Schema {
		s.projIdx = colIdx(b.Schema, s.spec.Cols)
		s.resolved = b.Schema
	}
	if s.rows == nil {
		s.rows = storage.GetBatch(s.resultSchema())
	}
	n := min(b.Len(), CollectCap-s.rows.Len())
	if n < b.Len() {
		s.truncated = true
	}
	s.rows.AppendRows(b.Cols, s.projIdx, sel[:n])
}

// resultSchema returns the result's schema, built at first use.
func (s *sinkState) resultSchema() *storage.Schema {
	if s.schema == nil {
		cols := make([]storage.Column, len(s.spec.OutCols))
		for i := range cols {
			cols[i] = storage.Column{Name: s.spec.OutCols[i], Kind: s.spec.OutKinds[i]}
		}
		s.schema = storage.NewSchema("result", cols...)
	}
	return s.schema
}

// finalize orders, limits, and batches the result, appending the result
// batches to batches; it returns them and the row count. The result is
// a list of vectors — the group table's key and finalized aggregate
// columns, or the collected rows' — and a permutation of its rows; the
// result batches gather from it column by column. A sink still keeping
// its result records the new batches and keeps the record for the next
// sink of its shape.
func (s *sinkState) finalize(batches []*storage.Batch) ([]*storage.Batch, int) {
	spec := s.spec
	var view []storage.EncVec
	var cols []int
	var perm []int32
	if len(spec.Aggs) > 0 {
		g := s.table()
		if spec.MergePartials {
			s.mergePartials()
		}
		if len(g.rows) == 0 && len(spec.GroupBy) == 0 {
			// Global aggregate over zero rows still yields one row
			// (COUNT(*) = 0; sums and extrema zero-valued — no NULLs in
			// this value model).
			g.addSlot()
		}
		// Group order: ascending group values (compareKeys). ORDER BY,
		// when present, re-sorts below, ties kept in group order.
		view, cols, perm = g.viewOf(true), spec.OutSrc, g.sorted()
	} else {
		if s.rows == nil {
			s.rows = storage.GetBatch(s.resultSchema())
		}
		view, cols = s.rows.Cols, identityCols(len(spec.OutCols))
		s.sel = identity(s.sel, s.rows.Len())
		perm = s.sel
	}
	if len(spec.OrderBy) > 0 {
		s.orderBy(view, cols, perm)
	}
	if spec.Limit >= 0 && len(perm) > spec.Limit {
		perm = perm[:spec.Limit]
	}
	if len(perm) > CollectCap {
		perm = perm[:CollectCap]
		s.truncated = true
	}

	first := len(batches)
	for i := 0; i < len(perm); i += DefaultBatchRows {
		b := storage.GetBatch(s.resultSchema())
		b.AppendRows(view, cols, perm[i:min(i+DefaultBatchRows, len(perm))])
		batches = append(batches, b)
	}
	rows := len(perm)
	if s.groups != nil {
		s.groups.release()
		s.groups = nil
	}
	storage.FreeBatch(s.rows)
	s.rows = nil

	for _, b := range batches[first:] {
		s.rec.output(b)
	}
	if k := s.rec.take(); k != nil {
		k.shape, k.schema, k.rows, k.truncated = keptShape{sink: *spec}, s.resultSchema(), rows, s.truncated
		s.w.keep(k)
	}
	return batches, rows
}

// report ends the query: it drops the input stream and sends the result
// batches, rows rows in all, to Notify.
func (s *sinkState) report(ctx core.Context, ac *core.AC, batches []*storage.Batch, rows int) {
	spec := s.spec
	ac.DropStream(spec.In)
	done := core.GetEvent()
	done.Kind, done.Query = core.EvQueryDone, spec.Query
	done.Payload = &QueryResult{
		Query: spec.Query, Rows: int64(rows),
		Cols: spec.OutCols, Batches: batches, Truncated: s.truncated,
	}
	ctx.Send(spec.Notify, done)
}

// orderBy sorts perm, a permutation of the result rows view (columns
// cols), by the ORDER BY keys, rows that tie keeping their order in
// perm. The last key is each row's position in perm, so an unstable
// pdqsort returns exactly what a stable sort would, and rows that arrive
// in reverse order cost it no more than any others.
func (s *sinkState) orderBy(view []storage.EncVec, cols []int, perm []int32) {
	pos := slices.Grow(s.pos[:0], len(perm))[:len(perm)]
	for i, r := range perm {
		pos[r] = int32(i)
	}
	s.pos = pos
	slices.SortFunc(perm, func(a, b int32) int {
		for _, k := range s.spec.OrderBy {
			if c := compareAt(&view[cols[k.Col]], a, b); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return cmp.Compare(pos[a], pos[b])
	})
}

// compareAt orders rows a and b of the raw vector v as Value.Compare
// orders their values.
func compareAt(v *storage.EncVec, a, b int32) int {
	switch v.Kind {
	case storage.KInt:
		return cmp.Compare(v.Ints[a], v.Ints[b])
	case storage.KFloat:
		switch x, y := v.Floats[a], v.Floats[b]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.Strs[a], v.Strs[b])
	}
}
