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
//     combine step, with no key map and no sort. Runs that are exactly
//     the batches a sink of the same shape on the same AC merged last
//     (held batches a shared scan's memo replayed) are not merged
//     again: the sink reads the table that merge left (sinkMerge).
//   - Aggs without MergePartials: the stream carries raw rows (join
//     output); the sink folds them into group accumulators directly.
//   - No Aggs: plain collection of projected rows (capped at
//     CollectCap).
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

// sinkState accumulates one query's result: a group table when the
// query aggregates, otherwise one batch of collected rows.
type sinkState struct {
	spec      *SinkSpec
	w         *Worker         // the AC's, keeping merges for reuse; nil keeps none
	schema    *storage.Schema // the result's
	groups    *groupTable
	kept      bool // groups is a merged table the Worker keeps: read it, never release it
	rows      *storage.Batch
	truncated bool

	// Column resolution against the stream's batch schema (raw fold and
	// collect), cached per schema.
	resolved *storage.Schema
	groupIdx []int
	aggIdx   []int
	projIdx  []int

	// Per-batch scratch: the identity selection over its rows; and per
	// result row, its position before the ORDER BY sort.
	sel, pos []int32
}

// sinkMerge is a merged group table a Worker keeps for the next merging
// sink of its shape — grouping, aggregates and accumulator kinds. The
// table keeps its runs, each held; a sink whose runs are the same
// batches, in any order, reads the table instead of merging, and never
// writes it.
type sinkMerge struct {
	groupBy []string
	aggs    []AggExpr
	g       *groupTable
}

// is reports whether m merged runs of the shape of spec's table g.
func (m *sinkMerge) is(spec *SinkSpec, g *groupTable) bool {
	sameKind := func(a, b aggVec) bool { return a.vals.Kind == b.vals.Kind }
	return slices.Equal(m.groupBy, spec.GroupBy) && slices.Equal(m.aggs, spec.Aggs) &&
		slices.EqualFunc(m.g.aggs, g.aggs, sameKind)
}

// keptMerge returns the Worker's merged table of g's shape whose runs
// are g's runs (sameBatches), or nil.
func (w *Worker) keptMerge(spec *SinkSpec, g *groupTable) *sinkMerge {
	if w == nil {
		return nil
	}
	i := slices.IndexFunc(w.merges, func(m *sinkMerge) bool { return m.is(spec, g) && sameBatches(g.runs, m.g.runs) })
	if i < 0 {
		return nil
	}
	toFront(w.merges, i)
	return w.merges[0]
}

// keepMerge keeps g, just merged, for the next sink of its shape when
// its runs can come again (reusable), replacing the Worker's table of
// that shape. It reports whether it kept g.
func (w *Worker) keepMerge(spec *SinkSpec, g *groupTable) bool {
	if !reusable(g.runs) {
		return false
	}
	i := slices.IndexFunc(w.merges, func(m *sinkMerge) bool { return m.is(spec, g) })
	var old *sinkMerge
	if w.merges, old = keepFront(w.merges, i, &sinkMerge{groupBy: spec.GroupBy, aggs: spec.Aggs, g: g}); old != nil {
		old.g.release()
	}
	return true
}

func (w *Worker) newSink(ctx core.Context, ac *core.AC, spec *SinkSpec) {
	s := &sinkState{spec: spec, w: w}
	cols := make([]storage.Column, len(spec.OutCols))
	for i := range cols {
		cols[i] = storage.Column{Name: spec.OutCols[i], Kind: spec.OutKinds[i]}
	}
	s.schema = storage.NewSchema("result", cols...)
	if len(spec.Aggs) > 0 {
		s.groups = sinkGroups(spec)
	}
	ac.Subscribe(ctx, spec.In, s)
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

func (s *sinkState) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	if b := msg.Batch; b != nil {
		ctx.Charge(ctx.Costs().AggRow * sim.Time(b.Len()))
		if s.spec.MergePartials {
			// One ordered run, merged with the others when the stream
			// closes; the table frees it on release.
			s.groups.runs = append(s.groups.runs, b)
		} else {
			s.sel = identity(s.sel, b.Len())
			if len(s.spec.Aggs) > 0 {
				s.foldRaw(b)
			} else {
				s.collect(b)
			}
			storage.FreeBatch(b)
		}
	}
	if msg.Last {
		if s.spec.MergePartials {
			s.merge()
		}
		s.finalize(ctx, ac)
	}
}

// merge combines the partial runs. When the Worker keeps a table merged
// from exactly these runs, the sink gives its own table back — and with
// it its holds on the runs — and reads the kept one. Otherwise it merges
// (mergePartials) and offers the table to the Worker to keep.
func (s *sinkState) merge() {
	if m := s.w.keptMerge(s.spec, s.groups); m != nil {
		s.groups.release()
		s.groups, s.kept = m.g, true
		s.w.work.reusedMerges++
		return
	}
	s.mergePartials()
	if s.w != nil {
		s.w.work.merges++
		s.kept = s.w.keepMerge(s.spec, s.groups)
	}
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

// foldRaw folds raw stream rows (join output) into the group table.
func (s *sinkState) foldRaw(b *storage.Batch) {
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
	g := s.groups
	g.fold(b.Cols, s.aggIdx, s.sel, g.slots(b.Cols, s.groupIdx, s.sel))
}

// collect appends projected rows (no aggregation), up to CollectCap. A
// column may be selected more than once.
func (s *sinkState) collect(b *storage.Batch) {
	if s.resolved != b.Schema {
		s.projIdx = colIdx(b.Schema, s.spec.Cols)
		s.resolved = b.Schema
	}
	if s.rows == nil {
		s.rows = storage.GetBatch(s.schema)
	}
	n := min(b.Len(), CollectCap-s.rows.Len())
	if n < b.Len() {
		s.truncated = true
	}
	s.rows.AppendRows(b.Cols, s.projIdx, s.sel[:n])
}

// finalize orders, limits, and batches the result, then reports it. The
// result is a list of vectors — the group table's key and finalized
// aggregate columns, or the collected rows' — and a permutation of its
// rows; the result batches gather from it column by column.
func (s *sinkState) finalize(ctx core.Context, ac *core.AC) {
	spec := s.spec
	var view []storage.EncVec
	var cols []int
	var perm []int32
	if g := s.groups; g != nil {
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
			s.rows = storage.GetBatch(s.schema)
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

	var batches []*storage.Batch
	for i := 0; i < len(perm); i += DefaultBatchRows {
		b := storage.GetBatch(s.schema)
		b.AppendRows(view, cols, perm[i:min(i+DefaultBatchRows, len(perm))])
		batches = append(batches, b)
	}

	rows := len(perm)
	if s.groups != nil && !s.kept {
		s.groups.release()
	}
	s.groups = nil
	storage.FreeBatch(s.rows)
	s.rows = nil
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
