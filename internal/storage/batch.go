package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ColVec is one column of a columnar batch. Only the slice matching Kind
// is populated.
type ColVec struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
}

func (c *ColVec) appendValue(v Value) {
	switch c.Kind {
	case KInt:
		c.Ints = append(c.Ints, v.I)
	case KFloat:
		c.Floats = append(c.Floats, v.F)
	default:
		c.Strs = append(c.Strs, v.S)
	}
}

// value materializes row i of the column as a Value.
func (c *ColVec) value(i int) Value {
	switch c.Kind {
	case KInt:
		return Int(c.Ints[i])
	case KFloat:
		return Float(c.Floats[i])
	default:
		return Str(c.Strs[i])
	}
}

// Batch is a columnar chunk of rows flowing through a data stream. OLAP
// operators exchange batches, not rows: this is the paper's vectorized
// query processing micro-model, and batch boundaries are where the
// simulation charges transfer and dispatch costs.
type Batch struct {
	Schema *Schema
	Cols   []ColVec
	n      int
	bytes  int64
}

// NewBatch returns an empty batch shaped like schema.
func NewBatch(schema *Schema) *Batch {
	b := &Batch{Schema: schema, Cols: make([]ColVec, schema.NumCols())}
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
	b := v.(*Batch)
	b.Schema = schema
	n := schema.NumCols()
	if cap(b.Cols) < n {
		b.Cols = make([]ColVec, n)
	} else {
		b.Cols = b.Cols[:n]
	}
	for i := range b.Cols {
		c := &b.Cols[i]
		c.Kind = schema.Cols[i].Kind
		c.Ints = c.Ints[:0]
		c.Floats = c.Floats[:0]
		c.Strs = c.Strs[:0]
	}
	b.n, b.bytes = 0, 0
	return b
}

// FreeBatch recycles b, keeping its column-vector capacity. Only the
// consumer the batch was delivered to may free it, and only once no row
// or projected reference escapes (Row/Project copy, so their results
// survive the free). String cells are released eagerly so the pool
// never pins row data. Frees are optional — missed ones fall back to
// the GC.
func FreeBatch(b *Batch) {
	if b == nil {
		return
	}
	if trackBatches.Load() {
		batchBal.Add(-1)
	}
	for i := range b.Cols {
		clear(b.Cols[i].Strs)
	}
	batchPools[batchClass(len(b.Cols))].Put(b)
}

// AppendRow copies row into the batch.
func (b *Batch) AppendRow(row Row) {
	if len(row) != len(b.Cols) {
		panic(fmt.Sprintf("storage: batch arity mismatch: row %d, batch %d", len(row), len(b.Cols)))
	}
	for i := range row {
		b.Cols[i].appendValue(row[i])
		b.bytes += row[i].size()
	}
	b.n++
}

// AppendValues appends one row given as individual values.
func (b *Batch) AppendValues(vals ...Value) { b.AppendRow(Row(vals)) }

// AppendChunkRows appends rows sel of chunk c, projected onto the chunk
// column indexes cols (one per batch column), decoding straight from the
// encoded vectors in one typed loop per column: frame-of-reference adds
// the chunk's Ref, dictionary codes index the dictionary's value slice,
// raw vectors copy. The batch grows by exactly the cells and Bytes() that
// AppendRow of each decoded row would add.
func (b *Batch) AppendChunkRows(c *EncChunk, cols []int, sel []int32) {
	if len(cols) != len(b.Cols) {
		panic(fmt.Sprintf("storage: batch arity mismatch: projection %d, batch %d", len(cols), len(b.Cols)))
	}
	for j, col := range cols {
		src, dst := &c.Cols[col], &b.Cols[j]
		switch {
		case src.Enc == EncFoR:
			dst.Ints = slices.Grow(dst.Ints, len(sel))
			for _, i := range sel {
				dst.Ints = append(dst.Ints, src.Ref+int64(src.Codes[i]))
			}
		case src.Enc == EncDict && src.Kind == KInt:
			dst.Ints = gatherCodes(dst.Ints, src.Dict.ints, src.Codes, sel)
		case src.Enc == EncDict:
			dst.Strs = gatherCodes(dst.Strs, src.Dict.strs, src.Codes, sel)
		case src.Kind == KInt:
			dst.Ints = gather(dst.Ints, src.Ints, sel)
		case src.Kind == KFloat:
			dst.Floats = gather(dst.Floats, src.Floats, sel)
		default:
			dst.Strs = gather(dst.Strs, src.Strs, sel)
		}
		b.bytes += cellBytes(dst, len(sel))
	}
	b.n += len(sel)
}

// RowRef addresses one row of a batch list: row Row of batch Batch.
type RowRef struct{ Batch, Row int32 }

// AppendJoined appends one row per ref: the cells of the referenced row
// of left, then the cells of row rows[i] of right, so the batch's schema
// must be left's columns followed by right's (ConcatSchema). Cells copy
// one typed loop per column; the batch grows by exactly the Bytes() that
// AppendRow of each concatenated row would add.
func (b *Batch) AppendJoined(left []*Batch, refs []RowRef, right *Batch, rows []int32) {
	if len(refs) != len(rows) {
		panic(fmt.Sprintf("storage: join gather mismatch: %d refs, %d rows", len(refs), len(rows)))
	}
	nl := len(b.Cols) - len(right.Cols)
	for c := 0; c < nl; c++ {
		dst := &b.Cols[c]
		switch dst.Kind {
		case KInt:
			dst.Ints = gatherRefs(dst.Ints, left, refs, func(v *ColVec) []int64 { return v.Ints }, c)
		case KFloat:
			dst.Floats = gatherRefs(dst.Floats, left, refs, func(v *ColVec) []float64 { return v.Floats }, c)
		default:
			dst.Strs = gatherRefs(dst.Strs, left, refs, func(v *ColVec) []string { return v.Strs }, c)
		}
		b.bytes += cellBytes(dst, len(refs))
	}
	for c := range right.Cols {
		src, dst := &right.Cols[c], &b.Cols[nl+c]
		switch dst.Kind {
		case KInt:
			dst.Ints = gather(dst.Ints, src.Ints, rows)
		case KFloat:
			dst.Floats = gather(dst.Floats, src.Floats, rows)
		default:
			dst.Strs = gather(dst.Strs, src.Strs, rows)
		}
		b.bytes += cellBytes(dst, len(rows))
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
func gatherRefs[T any](dst []T, left []*Batch, refs []RowRef, vec func(*ColVec) []T, c int) []T {
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
func cellBytes(c *ColVec, n int) int64 {
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
		r[c] = b.Cols[c].value(i)
	}
	return r
}

// Value returns the cell at (row, col) without materializing the row.
func (b *Batch) Value(row, col int) Value { return b.Cols[col].value(row) }

// Len returns the row count.
func (b *Batch) Len() int { return b.n }

// Bytes returns the approximate wire size.
func (b *Batch) Bytes() int64 { return b.bytes }

// Project returns a pooled batch containing only the named columns; the
// consumer frees it like any other batch.
func (b *Batch) Project(cols ...string) *Batch {
	idxs := make([]int, len(cols))
	outCols := make([]Column, len(cols))
	for i, name := range cols {
		idxs[i] = b.Schema.MustCol(name)
		outCols[i] = b.Schema.Cols[idxs[i]]
	}
	out := GetBatch(NewSchema(b.Schema.Name+"_proj", outCols...))
	for r := 0; r < b.n; r++ {
		for i, src := range idxs {
			v := b.Cols[src].value(r)
			out.Cols[i].appendValue(v)
			out.bytes += v.size()
		}
	}
	out.n = b.n
	return out
}

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
