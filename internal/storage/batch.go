package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Batch is a columnar chunk of rows flowing through a data stream. OLAP
// operators exchange batches, not rows: this is the paper's vectorized
// query processing micro-model, and batch boundaries are where the
// simulation charges transfer and dispatch costs. A batch's columns are
// the same vectors as a chunk's (EncVec), so one gather (AppendRows)
// reads a chunk, another batch or a group table alike.
type Batch struct {
	Schema *Schema
	// Cols holds one vector per schema column. Batch columns are raw
	// (EncRaw) by construction — every writer appends decoded cells — so
	// readers index Ints, Floats or Strs directly.
	Cols  []EncVec
	n     int
	bytes int64
}

// NewBatch returns an empty batch shaped like schema.
func NewBatch(schema *Schema) *Batch {
	b := &Batch{Schema: schema, Cols: make([]EncVec, schema.NumCols())}
	for i, c := range schema.Cols {
		b.Cols[i].Kind = c.Kind
	}
	return b
}

// batchClasses size-classes the batch pool by column count: a recycled
// batch is only useful when its column-vector capacities fit the next
// schema's arity, so each arity up to the cap pools separately (wider
// batches share the last class). TPC-C's scan/join schemas span 1–7
// columns, so classes stay hot.
const batchClasses = 9

var batchPools [batchClasses]sync.Pool

func batchClass(cols int) int {
	if cols >= batchClasses {
		return batchClasses - 1
	}
	return cols
}

// Batch-pool leak accounting, mirroring internal/core's event tracking
// (core.TrackPools toggles both). Off by default: one atomic flag load
// per Get/Free. The table-owned columnar chunk cache does not ride this
// pool at all — chunks are table state (colstore.go EncChunk), not
// in-flight messages, so only message batches are accounted here.
var (
	trackBatches atomic.Bool
	batchBal     atomic.Int64
)

// TrackBatches toggles batch-pool accounting and resets the counter.
func TrackBatches(on bool) {
	batchBal.Store(0)
	trackBatches.Store(on)
}

// BatchBalance reports outstanding tracked batches (gets minus frees).
func BatchBalance() int64 { return batchBal.Load() }

// GetBatch returns an empty batch shaped like schema, recycling vector
// capacity from the pool when a same-class batch is available. Pair
// with FreeBatch at the batch's single-consumer death point (after the
// last row was read or copied out).
func GetBatch(schema *Schema) *Batch {
	if trackBatches.Load() {
		batchBal.Add(1)
	}
	v := batchPools[batchClass(schema.NumCols())].Get()
	if v == nil {
		return NewBatch(schema)
	}
	// FreeBatch reset every vector the batch ever used, so the columns
	// only take their kinds.
	b := v.(*Batch)
	b.Schema = schema
	n := schema.NumCols()
	if cap(b.Cols) < n {
		b.Cols = make([]EncVec, n)
	} else {
		b.Cols = b.Cols[:n]
	}
	for i := range b.Cols {
		b.Cols[i].Kind = schema.Cols[i].Kind
	}
	b.n, b.bytes = 0, 0
	return b
}

// FreeBatch recycles b, keeping its column-vector capacity. Only the
// consumer the batch was delivered to may free it, and only once no row
// or projected reference escapes (Row/Project copy, so their results
// survive the free). The reset releases string cells eagerly so the
// pool never pins row data. Frees are optional — missed ones fall back
// to the GC.
func FreeBatch(b *Batch) {
	if b == nil {
		return
	}
	if trackBatches.Load() {
		batchBal.Add(-1)
	}
	b.Reset()
	batchPools[batchClass(len(b.Cols))].Put(b)
}

// Reset empties b in place, keeping its schema and its column-vector
// capacity.
func (b *Batch) Reset() {
	for i := range b.Cols {
		b.Cols[i].Reset(b.Cols[i].Kind)
	}
	b.n, b.bytes = 0, 0
}

// AppendRow copies row into the batch.
func (b *Batch) AppendRow(row Row) {
	if len(row) != len(b.Cols) {
		panic(fmt.Sprintf("storage: batch arity mismatch: row %d, batch %d", len(row), len(b.Cols)))
	}
	for i, v := range row {
		c := &b.Cols[i]
		switch c.Kind {
		case KInt:
			c.Ints = append(c.Ints, v.I)
		case KFloat:
			c.Floats = append(c.Floats, v.F)
		default:
			c.Strs = append(c.Strs, v.S)
		}
		b.bytes += v.size()
	}
	b.n++
}

// AppendValues appends one row given as individual values.
func (b *Batch) AppendValues(vals ...Value) { b.AppendRow(Row(vals)) }

// AppendRows appends rows sel of the vectors src — a chunk's columns, a
// batch's, or a group table's — projected onto the indexes cols (one per
// batch column), decoding in one typed loop per column. The batch grows
// by exactly the cells and Bytes() that AppendRow of each decoded row
// would add.
func (b *Batch) AppendRows(src []EncVec, cols []int, sel []int32) {
	if len(cols) != len(b.Cols) {
		panic(fmt.Sprintf("storage: batch arity mismatch: projection %d, batch %d", len(cols), len(b.Cols)))
	}
	for j, col := range cols {
		b.bytes += b.Cols[j].appendSel(&src[col], sel)
	}
	b.n += len(sel)
}

// appendSel appends rows sel of s, decoded, to the raw vector v and
// returns their wire size: frame-of-reference adds s's Ref, dictionary
// codes index the dictionary's value slice, raw vectors copy.
func (v *EncVec) appendSel(s *EncVec, sel []int32) int64 {
	switch {
	case s.Enc == EncFoR:
		// Locals, not s's fields: v is an EncVec too, so the compiler
		// would reload s.Ref and s.Codes after every append.
		ints, ref, codes := slices.Grow(v.Ints, len(sel)), s.Ref, s.Codes
		for _, i := range sel {
			ints = append(ints, ref+int64(codes[i]))
		}
		v.Ints = ints
	case s.Enc == EncDict && s.Kind == KInt:
		v.Ints = gatherCodes(v.Ints, s.Dict.ints, s.Codes, sel)
	case s.Enc == EncDict:
		v.Strs = gatherCodes(v.Strs, s.Dict.strs, s.Codes, sel)
	case s.Kind == KInt:
		v.Ints = gather(v.Ints, s.Ints, sel)
	case s.Kind == KFloat:
		v.Floats = gather(v.Floats, s.Floats, sel)
	default:
		v.Strs = gather(v.Strs, s.Strs, sel)
	}
	return cellBytes(v, len(sel))
}

// Extend counts n rows the caller appended straight to the typed slice
// of every column (a decoder filling the batch column by column): the
// batch grows by the Len() and Bytes() that AppendRow of each row would
// add.
func (b *Batch) Extend(n int) {
	for i := range b.Cols {
		b.bytes += cellBytes(&b.Cols[i], n)
	}
	b.n += n
}

// RowRef addresses one row of a batch list: row Row of batch Batch.
type RowRef struct{ Batch, Row int32 }

// AppendJoined appends one row per ref: the cells of columns lcols of
// the referenced row of left, then the cells of columns rcols of row
// rows[i] of right, so the batch's schema must be those left columns
// followed by those right ones. Cells copy one typed loop per column;
// the batch grows by exactly the Bytes() that AppendRow of each
// concatenated row would add.
func (b *Batch) AppendJoined(left []*Batch, lcols []int, refs []RowRef, right *Batch, rcols []int, rows []int32) {
	if len(refs) != len(rows) || len(lcols)+len(rcols) != len(b.Cols) {
		panic(fmt.Sprintf("storage: join gather mismatch: %d refs, %d rows, %d+%d columns into %d",
			len(refs), len(rows), len(lcols), len(rcols), len(b.Cols)))
	}
	for j, c := range lcols {
		dst := &b.Cols[j]
		switch dst.Kind {
		case KInt:
			dst.Ints = gatherRefs(dst.Ints, left, refs, func(v *EncVec) []int64 { return v.Ints }, c)
		case KFloat:
			dst.Floats = gatherRefs(dst.Floats, left, refs, func(v *EncVec) []float64 { return v.Floats }, c)
		default:
			dst.Strs = gatherRefs(dst.Strs, left, refs, func(v *EncVec) []string { return v.Strs }, c)
		}
		b.bytes += cellBytes(dst, len(refs))
	}
	for j, c := range rcols {
		b.bytes += b.Cols[len(lcols)+j].appendSel(&right.Cols[c], rows)
	}
	b.n += len(refs)
}

// gather appends src[i] for every i in sel to dst.
func gather[T any](dst, src []T, sel []int32) []T {
	dst = slices.Grow(dst, len(sel))
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

// gatherRefs appends, for every ref, cell r.Row of column c of batch
// left[r.Batch] to dst; vec picks the column's typed slice.
func gatherRefs[T any](dst []T, left []*Batch, refs []RowRef, vec func(*EncVec) []T, c int) []T {
	dst = slices.Grow(dst, len(refs))
	for _, r := range refs {
		dst = append(dst, vec(&left[r.Batch].Cols[c])[r.Row])
	}
	return dst
}

// gatherCodes appends the dictionary values of codes[i] for every i in
// sel to dst.
func gatherCodes[T any](dst, dict []T, codes []uint32, sel []int32) []T {
	dst = slices.Grow(dst, len(sel))
	for _, i := range sel {
		dst = append(dst, dict[codes[i]])
	}
	return dst
}

// cellBytes is the wire size (Value.size) of the last n cells appended
// to column c.
func cellBytes(c *EncVec, n int) int64 {
	if c.Kind != KStr {
		return 8 * int64(n)
	}
	var s int64
	for _, x := range c.Strs[len(c.Strs)-n:] {
		s += int64(len(x)) + 4
	}
	return s
}

// Row materializes row i (a copy).
func (b *Batch) Row(i int) Row {
	r := make(Row, len(b.Cols))
	for c := range b.Cols {
		r[c] = b.Cols[c].Value(i)
	}
	return r
}

// Value returns the cell at (row, col) without materializing the row.
func (b *Batch) Value(row, col int) Value { return b.Cols[col].Value(row) }

// Len returns the row count.
func (b *Batch) Len() int { return b.n }

// Bytes returns the approximate wire size.
func (b *Batch) Bytes() int64 { return b.bytes }

// ConcatSchema merges two schemas for join output, prefixing column names
// with each side's table name when they collide.
func ConcatSchema(name string, left, right *Schema) *Schema {
	cols := make([]Column, 0, left.NumCols()+right.NumCols())
	seen := make(map[string]bool)
	for _, c := range left.Cols {
		cols = append(cols, c)
		seen[c.Name] = true
	}
	for _, c := range right.Cols {
		n := c.Name
		if seen[n] {
			n = right.Name + "." + n
		}
		cols = append(cols, Column{Name: n, Kind: c.Kind})
		seen[n] = true
	}
	return NewSchema(name, cols...)
}
