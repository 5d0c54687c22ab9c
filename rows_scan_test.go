package anydb

import (
	"testing"

	"anydb/internal/olap"
	"anydb/internal/storage"
)

// TestScanReadsEveryDestination scans a result batch of an int, a float
// and a string column into each destination a column's kind accepts,
// through Rows.Scan and Row.Scan, and checks the errors for a kind
// mismatch and for an unsupported destination.
func TestScanReadsEveryDestination(t *testing.T) {
	schema := storage.NewSchema("result", storage.Column{Name: "n", Kind: storage.KInt},
		storage.Column{Name: "f", Kind: storage.KFloat}, storage.Column{Name: "s", Kind: storage.KStr})
	cols := []string{"n", "f", "s"}
	want := []storage.Row{
		{storage.Int(-3), storage.Float(0.5), storage.Str("")},
		{storage.Int(1 << 40), storage.Float(-2), storage.Str("GA")},
	}
	b := storage.GetBatch(schema)
	for _, row := range want {
		b.AppendValues(row...)
	}
	r := Rows{cols: cols, batches: []*storage.Batch{b}}
	defer r.Close()
	for i := 0; r.Next(); i++ {
		w := want[i]
		var n int64
		var ni int
		var nf, f float64
		var s string
		if err := r.Scan(&n, &f, &s); err != nil {
			t.Fatal(err)
		}
		if n != w[0].I || f != w[1].F || s != w[2].S {
			t.Fatalf("row %d: read (%d, %v, %q), want %v", i, n, f, s, w)
		}
		errI, errF := r.Scan(&ni, &f, &s), r.Scan(&nf, &f, &s)
		if errI != nil || errF != nil || int64(ni) != w[0].I || nf != float64(w[0].I) {
			t.Fatalf("row %d: read %d and %v into *int and *float64 (%v, %v), want %d", i, ni, nf, errI, errF, w[0].I)
		}
		var a [3]any
		if err := r.Scan(&a[0], &a[1], &a[2]); err != nil || a[0] != w[0].I || a[1] != w[1].F || a[2] != w[2].S {
			t.Fatalf("row %d: read %v into *any (%v), want %v", i, a, err, w)
		}
		row := Row{cols: cols, row: r.batches[r.bi]}
		if i == 0 {
			if err := row.Scan(&n, &f, &s); err != nil || n != w[0].I || f != w[1].F || s != w[2].S {
				t.Fatalf("Row.Scan read (%d, %v, %q) (%v), want %v", n, f, s, err, w)
			}
		}
	}
	b = storage.GetBatch(schema)
	b.AppendValues(want[0]...)
	defer storage.FreeBatch(b)
	for _, c := range []struct {
		dest []any
		err  string
	}{
		{[]any{new(string), new(float64), new(string)}, "anydb: column n is int, not string"},
		{[]any{new(int64), new(int64), new(string)}, "anydb: column f is float, not int"},
		{[]any{new(int64), new(float64), new(float64)}, "anydb: column s is string, not float"},
		{[]any{new(int64), new(float64), new([]byte)}, "anydb: unsupported Scan destination *[]uint8 for column s"},
		{[]any{new(int64)}, "anydb: Scan got 1 destinations for 3 columns"},
	} {
		row := Row{cols: cols, row: b}
		if err := row.Scan(c.dest...); err == nil || err.Error() != c.err {
			t.Fatalf("Scan into %T...: %v, want %q", c.dest[0], err, c.err)
		}
	}
}

// BenchmarkRowsScan drains a grouped result — 676 rows of (c_state,
// COUNT, SUM), the olap_shared group shape — through Rows.Next and
// Rows.Scan into a string, an int64 and a float64. The batches are held
// once more per op, as a replayed result would be, so each drain frees
// only its own holds. It must show zero steady-state allocations.
//
//	go test -run '^$' -bench RowsScan -benchmem .
func BenchmarkRowsScan(b *testing.B) {
	const groups = 676
	schema := storage.NewSchema("result", storage.Column{Name: "c_state", Kind: storage.KStr},
		storage.Column{Name: "count", Kind: storage.KInt}, storage.Column{Name: "sum", Kind: storage.KFloat})
	cols := []string{"c_state", "count", "sum"}
	var batches []*storage.Batch
	for i := range groups {
		if i%olap.DefaultBatchRows == 0 {
			batches = append(batches, storage.GetBatch(schema))
		}
		state := string([]byte{'A' + byte(i/26), 'A' + byte(i%26)})
		batches[len(batches)-1].AppendValues(storage.Str(state), storage.Int(int64(i%7+1)), storage.Float(float64(i)/4))
	}
	list := make([]*storage.Batch, len(batches))
	var s string
	var n int64
	var f float64
	op := func() {
		for _, bb := range batches {
			storage.HoldBatch(bb)
		}
		copy(list, batches)
		r := Rows{cols: cols, batches: list}
		rows := 0
		for r.Next() {
			if err := r.Scan(&s, &n, &f); err != nil {
				b.Fatal(err)
			}
			rows++
		}
		if rows != groups {
			b.Fatalf("%d rows, want %d", rows, groups)
		}
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	for _, bb := range batches {
		storage.FreeBatch(bb)
	}
}
