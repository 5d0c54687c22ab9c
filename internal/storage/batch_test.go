package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// gatherTestChunk builds one chunk whose columns cover every encoding the
// gather reads: dictionary string, dictionary int, frame-of-reference
// int, raw int, raw float, and raw string (its dictionary sealed before
// the build, as after a cap overflow).
func gatherTestChunk(t *testing.T) *EncChunk {
	t.Helper()
	schema := NewSchema("g",
		Column{Name: "state", Kind: KStr}, // dict string
		Column{Name: "d_id", Kind: KInt},  // dict int
		Column{Name: "seq", Kind: KInt},   // FoR
		Column{Name: "wide", Kind: KInt},  // raw int
		Column{Name: "bal", Kind: KFloat}, // raw float
		Column{Name: "last", Kind: KStr},  // raw string
	)
	tb := NewTable(schema)
	n := maxIntDictCodes + 200
	for i := 0; i < n; i++ {
		tb.Append(Row{
			Str(fmt.Sprintf("s%d", i%11)),
			Int(int64(i % 10)),
			Int(int64(5000 + 3*i)),
			Int(int64(i-n/2) * (1 << 33)),
			Float(float64(i) / 7),
			Str(fmt.Sprintf("name-%d", i*i%1009)),
		})
	}
	tb.dict(5).sealed = true
	c := tb.ColChunk(0)
	want := []EncKind{EncDict, EncDict, EncFoR, EncRaw, EncRaw, EncRaw}
	for col, enc := range want {
		if got := c.Cols[col].Enc; got != enc {
			t.Fatalf("col %s: enc = %d, want %d", schema.Cols[col].Name, got, enc)
		}
	}
	return c
}

// TestAppendRowsMatchesDecode checks the typed gather against per-cell
// decode + AppendRow over random row selections and projections, from a
// chunk's encoded vectors and then from a batch's raw ones: same cells,
// same Len, and the same Bytes() the virtual-time transfer charges read.
func TestAppendRowsMatchesDecode(t *testing.T) {
	c := gatherTestChunk(t)
	rng := rand.New(rand.NewSource(5))
	projections := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 2, 0},
		{4},
		{3, 3, 1},
	}
	for trial := 0; trial < 60; trial++ {
		cols := projections[trial%len(projections)]
		outCols := make([]Column, len(cols))
		for j, col := range cols {
			outCols[j] = Column{Name: fmt.Sprintf("c%d", j), Kind: c.Schema.Cols[col].Kind}
		}
		schema := NewSchema("proj", outCols...)
		var sel []int32
		for i := 0; i < c.Len(); i++ {
			if rng.Intn(4) == 0 {
				sel = append(sel, int32(i))
			}
		}
		got, want := GetBatch(schema), NewBatch(schema)
		// Two appends into one batch: the gather must extend, not reset.
		half := len(sel) / 2
		got.AppendRows(c.Cols, cols, sel[:half])
		got.AppendRows(c.Cols, cols, sel[half:])
		row := make(Row, len(cols))
		for _, i := range sel {
			for j, col := range cols {
				row[j] = c.Cols[col].Value(int(i))
			}
			want.AppendRow(row)
		}
		assertSameBatch(t, fmt.Sprintf("trial %d", trial), got, want)
		// A batch's columns gather like a chunk's: copy got whole.
		all, ident := make([]int32, got.Len()), make([]int, len(cols))
		for i := range all {
			all[i] = int32(i)
		}
		for j := range ident {
			ident[j] = j
		}
		again := GetBatch(schema)
		again.AppendRows(got.Cols, ident, all)
		assertSameBatch(t, fmt.Sprintf("trial %d, batch to batch", trial), again, want)
		FreeBatch(got)
		FreeBatch(again)
	}
}

// TestAppendJoinedMatchesRows checks the join gather against AppendRow
// of the concatenated build and probe rows, with build refs spanning
// several batches: once carrying every column of both sides, once a
// reordered subset of each, and once the right side alone.
func TestAppendJoinedMatchesRows(t *testing.T) {
	c := gatherTestChunk(t)
	rng := rand.New(rand.NewSource(9))
	leftCols, rightCols := []int{0, 1, 4}, []int{5, 2, 3}
	proj := func(name string, src *Schema, cols []int) *Schema {
		out := make([]Column, len(cols))
		for j, col := range cols {
			out[j] = src.Cols[col]
		}
		return NewSchema(name, out...)
	}
	ls, rs := proj("l", c.Schema, leftCols), proj("r", c.Schema, rightCols)
	var left []*Batch
	for b := 0; b < 3; b++ {
		lb := NewBatch(ls)
		lb.AppendRows(c.Cols, leftCols, []int32{int32(b), int32(b + 100), int32(b + 500), int32(b + 900)})
		left = append(left, lb)
	}
	right := NewBatch(rs)
	right.AppendRows(c.Cols, rightCols, []int32{7, 8, 9, 1000, 1001})

	var refs []RowRef
	var rows []int32
	for i := 0; i < 200; i++ {
		refs = append(refs, RowRef{Batch: int32(rng.Intn(len(left))), Row: int32(rng.Intn(4))})
		rows = append(rows, int32(rng.Intn(right.Len())))
	}
	for _, keep := range []struct{ l, r []int }{{[]int{0, 1, 2}, []int{0, 1, 2}}, {[]int{2, 0}, []int{1}}, {nil, []int{2, 0}}} {
		out := ConcatSchema("out", proj("l", ls, keep.l), proj("r", rs, keep.r))
		got, want := NewBatch(out), NewBatch(out)
		got.AppendJoined(left, keep.l, refs, right, keep.r, rows)
		for i, r := range refs {
			var row Row
			for _, col := range keep.l {
				row = append(row, left[r.Batch].Value(int(r.Row), col))
			}
			for _, col := range keep.r {
				row = append(row, right.Value(int(rows[i]), col))
			}
			want.AppendRow(row)
		}
		assertSameBatch(t, fmt.Sprintf("join %v+%v", keep.l, keep.r), got, want)
	}
}

func assertSameBatch(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if got.Len() != want.Len() || got.Bytes() != want.Bytes() {
		t.Fatalf("%s: len %d bytes %d, want len %d bytes %d", what, got.Len(), got.Bytes(), want.Len(), want.Bytes())
	}
	for i := 0; i < want.Len(); i++ {
		for j := range want.Cols {
			if g, w := got.Value(i, j), want.Value(i, j); !g.Equal(w) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", what, i, j, g, w)
			}
		}
	}
}
