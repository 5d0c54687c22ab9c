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
//     cells); the sink merges them — the distributed-aggregation
//     combine step.
//   - Aggs without MergePartials: the stream carries raw rows (join
//     output); the sink folds them into group accumulators directly.
//   - No Aggs: plain collection of projected rows (capped at
//     CollectCap).
type SinkSpec struct {
	Query core.QueryID
	In    core.StreamID

	GroupBy       []string // raw-fold grouping columns (stream schema names)
	Aggs          []AggExpr
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
	schema    *storage.Schema // the result's
	groups    *groupTable
	rows      *storage.Batch
	truncated bool

	// Column resolution against the stream's batch schema (raw fold and
	// collect), cached per schema.
	resolved *storage.Schema
	groupIdx []int
	aggIdx   []int
	projIdx  []int

	// Partial-merge scratch: the partial layout leads with the group
	// columns, so the index list is the identity — built once here, not
	// per incoming batch.
	partIdx []int

	// Per-batch scratch: the batch's columns as vectors, and the identity
	// selection over its rows.
	src []storage.EncVec
	sel []int32
}

func newSink(ctx core.Context, ac *core.AC, spec *SinkSpec) {
	s := &sinkState{spec: spec}
	cols := make([]storage.Column, len(spec.OutCols))
	for i := range cols {
		cols[i] = storage.Column{Name: spec.OutCols[i], Kind: spec.OutKinds[i]}
	}
	s.schema = storage.NewSchema("result", cols...)
	if len(spec.Aggs) > 0 {
		// Each accumulator takes its aggregate's result kind, recovered
		// from its SELECT slot (every aggregate came from a select item, so
		// one exists); AVG accumulates a float sum.
		s.groups = getGroupTable(spec.Aggs, len(spec.GroupBy))
		base := len(spec.GroupBy)
		for i, src := range spec.OutSrc {
			if src >= base {
				s.groups.aggs[src-base].vals.Kind = spec.OutKinds[i]
			}
		}
		for j, a := range spec.Aggs {
			if a.Fn == AggAvg {
				s.groups.aggs[j].vals.Kind = storage.KFloat
			}
		}
	}
	if spec.MergePartials {
		s.partIdx = identityCols(len(spec.GroupBy))
	}
	ac.Subscribe(ctx, spec.In, s)
}

func (s *sinkState) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	if b := msg.Batch; b != nil {
		ctx.Charge(ctx.Costs().AggRow * sim.Time(b.Len()))
		s.src, s.sel = rawVecs(s.src, b), identity(s.sel, b.Len())
		switch {
		case s.spec.MergePartials:
			s.mergePartials(b)
		case len(s.spec.Aggs) > 0:
			s.foldRaw(b)
		default:
			s.collect(b)
		}
		storage.FreeBatch(b)
	}
	if msg.Last {
		s.finalize(ctx, ac)
	}
}

// mergePartials merges partial-aggregate rows (shared-scan partial
// layout) into the group table: one map probe per row finds its group,
// then each aggregate merges in one typed loop over its partial column.
// Every COUNT and AVG count column of a partial row carries the same
// row count, so the first one feeds the table's counts.
func (s *sinkState) mergePartials(b *storage.Batch) {
	g := s.groups
	g.at = s.slots(b.Len(), s.partIdx)
	col, counted := len(s.spec.GroupBy), false
	for j, a := range s.spec.Aggs {
		switch a.Fn {
		case AggCount:
			if !counted {
				g.addCounts(s.src[col].Ints, g.at)
				counted = true
			}
			col++
		case AggAvg:
			g.aggs[j].add(&s.src[col], s.sel, g.at)
			if !counted {
				g.addCounts(s.src[col+1].Ints, g.at)
				counted = true
			}
			col += 2
		default:
			g.aggs[j].add(&s.src[col], s.sel, g.at)
			col++
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
	g.at = s.slots(b.Len(), s.groupIdx)
	g.fold(s.src, s.aggIdx, s.sel, g.at)
}

// slots returns the group slot of each of the batch's n rows, grouped by
// the batch columns groupIdx.
func (s *sinkState) slots(n int, groupIdx []int) []int32 {
	g := s.groups
	at := g.at[:0]
	for r := 0; r < n; r++ {
		at = append(at, g.slotOf(s.src, groupIdx, r))
	}
	return at
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
	s.rows.AppendChunkRows(&storage.EncChunk{Cols: s.src}, s.projIdx, s.sel[:n])
}

// finalize orders, limits, and batches the result, then reports it. The
// result is a chunk view — the group table's key and finalized aggregate
// columns, or the collected rows — and a permutation of its rows; the
// result batches gather from it column by column.
func (s *sinkState) finalize(ctx core.Context, ac *core.AC) {
	spec := s.spec
	var view *storage.EncChunk
	var cols []int
	var perm []int32
	if g := s.groups; g != nil {
		if len(g.rows) == 0 && len(spec.GroupBy) == 0 {
			// Global aggregate over zero rows still yields one row
			// (COUNT(*) = 0; sums and extrema zero-valued — no NULLs in
			// this value model).
			g.addSlot()
		}
		// Deterministic group order: by group key. ORDER BY, when present,
		// re-sorts below.
		view, cols, perm = g.viewOf(true), spec.OutSrc, g.sorted()
	} else {
		if s.rows == nil {
			s.rows = storage.GetBatch(s.schema)
		}
		s.src = rawVecs(s.src, s.rows)
		view, cols = &storage.EncChunk{Cols: s.src}, identityCols(len(spec.OutCols))
		s.sel = identity(s.sel, s.rows.Len())
		perm = s.sel
	}
	if len(spec.OrderBy) > 0 {
		slices.SortStableFunc(perm, func(a, b int32) int {
			for _, k := range spec.OrderBy {
				if c := compareAt(&view.Cols[cols[k.Col]], a, b); c != 0 {
					if k.Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
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
		b.AppendChunkRows(view, cols, perm[i:min(i+DefaultBatchRows, len(perm))])
		batches = append(batches, b)
	}

	rows := len(perm)
	if s.groups != nil {
		s.groups.release()
		s.groups = nil
	}
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
