package olap

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// TestOrderByKeepsTiesInOrder sorts results with many ties, ascending and
// descending, on a collecting sink (ties keep arrival order), a merging
// sink and a sink folding raw rows (ties keep group order), and checks
// every row against a stable sort of the same rows.
func TestOrderByKeepsTiesInOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	I := storage.Int
	two := storage.NewSchema("in", storage.Column{Name: "k", Kind: storage.KInt}, storage.Column{Name: "v", Kind: storage.KInt})
	kinds := []storage.Kind{storage.KInt, storage.KInt}
	// sink runs spec over batches, each delivered by its own producer.
	sink := func(spec *SinkSpec, batches ...*storage.Batch) [][2]int64 {
		ac := core.NewAC(1)
		ctx := &flushSink{costs: sim.DefaultCosts()}
		spec.In, spec.Query, spec.Notify, spec.Limit, spec.OutKinds = 64, 1, core.ClientAC, -1, kinds
		spec.OutCols = []string{"a", "b"}
		(&Worker{}).newSink(ctx, ac, spec)
		for _, b := range batches {
			msg := core.GetDataMsg()
			msg.Stream, msg.Query, msg.Batch, msg.Last, msg.Producers = spec.In, spec.Query, b, true, len(batches)
			ac.HandleData(ctx, msg)
		}
		var out [][2]int64
		for _, b := range ctx.resent.Payload.(*QueryResult).Batches {
			for i := range b.Len() {
				out = append(out, [2]int64{b.Cols[0].Ints[i], b.Cols[1].Ints[i]})
			}
			storage.FreeBatch(b)
		}
		return out
	}
	// reference stable-sorts rows by column col.
	reference := func(rows [][2]int64, col int, desc bool) [][2]int64 {
		rows = slices.Clone(rows)
		slices.SortStableFunc(rows, func(a, b [2]int64) int {
			if desc {
				return cmp.Compare(b[col], a[col])
			}
			return cmp.Compare(a[col], b[col])
		})
		return rows
	}
	for _, desc := range []bool{false, true} {
		// Collect: 2 000 rows over two batches, k in 0..3, v their arrival
		// position, so a tie out of order shows in v.
		var rows [][2]int64
		var batches []*storage.Batch
		for range 2 {
			b := storage.GetBatch(two)
			for range 1000 {
				row := [2]int64{rng.Int64N(4), int64(len(rows))}
				rows = append(rows, row)
				b.AppendValues(I(row[0]), I(row[1]))
			}
			batches = append(batches, b)
		}
		got := sink(&SinkSpec{Cols: []string{"k", "v"}, OrderBy: []OrderKey{{Col: 0, Desc: desc}}}, batches...)
		if want := reference(rows, 0, desc); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("collect, desc %v:\n got %v\nwant %v", desc, got, want)
		}

		// Grouped: 300 groups g, each of 1..3 rows, ordered by COUNT(*), so
		// about 100 groups tie on each count. Group order is ascending g.
		counts := make([][2]int64, 300)
		raw := storage.GetBatch(two)
		for g := range counts {
			counts[g] = [2]int64{int64(g), 1 + rng.Int64N(3)}
			for range counts[g][1] {
				raw.AppendValues(I(int64(g)), I(0))
			}
		}
		want := reference(counts, 1, desc)
		grouped := func() *SinkSpec {
			return &SinkSpec{GroupBy: []string{"k"}, Aggs: []AggExpr{{Fn: AggCount}}, OutSrc: []int{0, 1},
				OrderBy: []OrderKey{{Col: 1, Desc: desc}}}
		}
		if got := sink(grouped(), raw); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("raw fold, desc %v:\n got %v\nwant %v", desc, got, want)
		}
		// The same counts as two ordered partial runs, the groups split
		// between them.
		partial := storage.NewSchema("partial", storage.Column{Name: "g0", Kind: storage.KInt}, storage.Column{Name: "p0", Kind: storage.KInt})
		runs := []*storage.Batch{storage.GetBatch(partial), storage.GetBatch(partial)}
		for g, c := range counts {
			runs[g%2].AppendValues(I(c[0]), I(c[1]))
		}
		merged := grouped()
		merged.MergePartials = true
		if got := sink(merged, runs...); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("merge, desc %v:\n got %v\nwant %v", desc, got, want)
		}
	}
}
