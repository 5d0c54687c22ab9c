package olap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// The merge oracle: ordered partial runs fed to a MergePartials sink,
// compared — values and row order — with a naive merge of the same
// partial rows: a map by order-preserving key (orderKey), then a sort by
// that key.

// mergeSources are the source kinds the oracle's aggregates name; the
// sink never reads a source column, it only types its accumulators.
var mergeSources = map[string]storage.Kind{"i": storage.KInt, "f": storage.KFloat, "s": storage.KStr}

// mergeAggLists are the aggregate lists the oracle draws from: every
// function over every kind; AVG without COUNT, so the table's counts
// come from AVG's count column; no count column at all; COUNT alone.
var mergeAggLists = [][]AggExpr{
	{{Fn: AggCount}, {Fn: AggSum, Col: "i"}, {Fn: AggSum, Col: "f"},
		{Fn: AggMin, Col: "i"}, {Fn: AggMax, Col: "i"}, {Fn: AggMin, Col: "f"}, {Fn: AggMax, Col: "f"},
		{Fn: AggMin, Col: "s"}, {Fn: AggMax, Col: "s"}, {Fn: AggAvg, Col: "i"}, {Fn: AggAvg, Col: "f"}},
	{{Fn: AggAvg, Col: "f"}, {Fn: AggSum, Col: "i"}, {Fn: AggAvg, Col: "i"}},
	{{Fn: AggSum, Col: "f"}, {Fn: AggMax, Col: "s"}},
	{{Fn: AggCount}},
}

// mergeKeyPools are the key values per kind: negative ints and ints
// whose decimal text orders apart from their values (-10 before -1, 2
// before 10), floats with 0 and -0 (distinct keys) and exponent forms,
// and strings with "" and prefixes.
var mergeKeyPools = map[storage.Kind][]storage.Value{
	storage.KInt: {storage.Int(-1), storage.Int(-10), storage.Int(-2), storage.Int(0), storage.Int(1),
		storage.Int(2), storage.Int(10), storage.Int(11), storage.Int(-100), storage.Int(9)},
	storage.KFloat: {storage.Float(-1), storage.Float(-0.5), storage.Float(0), storage.Float(math.Copysign(0, -1)),
		storage.Float(0.25), storage.Float(1), storage.Float(10), storage.Float(2.5), storage.Float(1e21), storage.Float(1e-7)},
	storage.KStr: {storage.Str(""), storage.Str("A"), storage.Str("AB"), storage.Str("B"), storage.Str("a"),
		storage.Str("AA"), storage.Str("Z"), storage.Str("ab")},
}

// How a producer delivers its run.
type mergeMode int

const (
	runOne   mergeMode = iota // one batch, then Last
	runSplit                  // the run split over two batches
	runEmpty                  // a batch with no rows
	runNil                    // no batch: Last alone
)

// mergeCase is one oracle case: the key columns' kinds, the aggregates,
// and per producer its groups (key tuples, any order: the harness sorts
// each run) and how it delivers them.
type mergeCase struct {
	name  string
	keys  []storage.Kind
	aggs  []AggExpr
	runs  [][]storage.Row
	modes []mergeMode
}

// mode is how producer p delivers its run: one batch unless the case
// says otherwise. An empty or nil run drops the case's groups for it.
func (c mergeCase) mode(p int) mergeMode {
	if p < len(c.modes) {
		return c.modes[p]
	}
	return runOne
}

// TestSinkMergeOracle runs table-driven and random cases: 0-3 key
// columns of int (negatives), float (0 and -0) and string ("" and
// prefixes) keys, every aggregate, and 1-6 runs, empty, nil or split
// over two batches among them.
func TestSinkMergeOracle(t *testing.T) {
	I, F, S := storage.Int, storage.Float, storage.Str
	all := mergeAggLists[0]
	cases := []mergeCase{
		{name: "int keys, -10 before -1", keys: []storage.Kind{storage.KInt}, aggs: all,
			runs: [][]storage.Row{{{I(-1)}, {I(-10)}, {I(2)}}, {{I(-10)}, {I(10)}, {I(-2)}}, {{I(2)}, {I(-1)}, {I(1)}}}},
		{name: "string prefixes and the empty string", keys: []storage.Kind{storage.KStr}, aggs: all,
			runs: [][]storage.Row{{{S("AB")}, {S("")}}, {{S("A")}, {S("AB")}, {S("B")}}, {{S("")}, {S("A")}}}},
		{name: "second column decides", keys: []storage.Kind{storage.KStr, storage.KInt}, aggs: all,
			runs: [][]storage.Row{{{S("A"), I(1)}, {S("A"), I(2)}, {S("B"), I(1)}},
				{{S("A"), I(2)}, {S("B"), I(-1)}}, {{S("A"), I(10)}, {S("B"), I(1)}}}},
		{name: "float keys, 0 and -0 apart", keys: []storage.Kind{storage.KFloat, storage.KStr}, aggs: mergeAggLists[1],
			runs: [][]storage.Row{{{F(0), S("A")}, {F(math.Copysign(0, -1)), S("A")}, {F(1e21), S("")}},
				{{F(0), S("A")}, {F(2.5), S("B")}}}},
		{name: "nil, empty and split runs", keys: []storage.Kind{storage.KInt, storage.KStr}, aggs: all,
			runs: [][]storage.Row{nil, nil,
				{{I(-1), S("A")}, {I(-1), S("AB")}, {I(-10), S("")}, {I(2), S("B")}},
				{{I(-1), S("AB")}, {I(2), S("B")}}},
			modes: []mergeMode{runNil, runEmpty, runSplit, runOne}},
		{name: "one producer over two batches", keys: []storage.Kind{storage.KStr}, aggs: all,
			runs: [][]storage.Row{{{S("A")}, {S("B")}, {S("C")}, {S("D")}}}, modes: []mergeMode{runSplit}},
		{name: "global aggregate", aggs: all, runs: [][]storage.Row{{{}}, {{}}, nil, {{}}},
			modes: []mergeMode{runOne, runSplit, runNil, runOne}},
		{name: "global aggregate over nothing", aggs: all, runs: [][]storage.Row{nil, nil},
			modes: []mergeMode{runNil, runEmpty}},
		{name: "grouped over nothing", keys: []storage.Kind{storage.KStr}, aggs: mergeAggLists[2],
			runs: [][]storage.Row{nil, nil}, modes: []mergeMode{runNil, runEmpty}},
	}
	rng := rand.New(rand.NewPCG(45, 7))
	kinds := []storage.Kind{storage.KInt, storage.KFloat, storage.KStr}
	for n := range 300 {
		c := mergeCase{name: fmt.Sprintf("random %d", n), aggs: mergeAggLists[rng.IntN(len(mergeAggLists))]}
		for range n % 4 {
			c.keys = append(c.keys, kinds[rng.IntN(len(kinds))])
		}
		// A universe of up to 40 key tuples; each run takes a random
		// subset of it, so runs overlap in some keys and not others.
		var universe []storage.Row
		for range 1 + rng.IntN(40) {
			row := make(storage.Row, len(c.keys))
			for k, kind := range c.keys {
				pool := mergeKeyPools[kind]
				row[k] = pool[rng.IntN(len(pool))]
			}
			universe = append(universe, row)
		}
		for range 1 + rng.IntN(6) {
			var run []storage.Row
			keep := rng.Float64()
			for _, row := range universe {
				if rng.Float64() < keep {
					run = append(run, row)
				}
			}
			c.runs = append(c.runs, run)
			c.modes = append(c.modes, []mergeMode{runOne, runOne, runOne, runSplit, runEmpty, runNil}[rng.IntN(6)])
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := partialRuns(rng, c)
			want := naiveMerge(c.keys, c.aggs, runs)
			got := runMergeSink(t, rng, c, runs)
			if len(got) != len(want) {
				t.Fatalf("%d rows, want %d\n got %v\nwant %v", len(got), len(want), got, want)
			}
			for i := range want {
				if !slices.EqualFunc(got[i], want[i], sameValue) {
					t.Fatalf("row %d:\n got %v\nwant %v", i, got[i], want[i])
				}
			}
		})
	}
}

// partialRuns builds each producer's partial run: its distinct key tuples
// in group order, each followed by partial cells drawn from rng. Every
// count column of a row carries the same row count, as a scan's do;
// float sums are quarter units, exact in any order.
func partialRuns(rng *rand.Rand, c mergeCase) [][]storage.Row {
	out := make([][]storage.Row, len(c.runs))
	for p, keys := range c.runs {
		if m := c.mode(p); m == runEmpty || m == runNil {
			continue
		}
		seen := map[string]bool{}
		var run []storage.Row
		for _, k := range keys {
			if key := orderKey(k); !seen[key] {
				seen[key] = true
				run = append(run, k)
			}
		}
		slices.SortFunc(run, func(a, b storage.Row) int { return strings.Compare(orderKey(a), orderKey(b)) })
		for i, k := range run {
			row := slices.Clone(k)
			n := int64(1 + rng.IntN(5))
			for _, a := range c.aggs {
				switch a.Fn {
				case AggCount:
					row = append(row, storage.Int(n))
				case AggAvg:
					row = append(row, storage.Float(float64(rng.IntN(400)-200)/4), storage.Int(n))
				default:
					row = append(row, randomCell(rng, mergeSources[a.Col]))
				}
			}
			run[i] = row
		}
		out[p] = run
	}
	return out
}

func randomCell(rng *rand.Rand, kind storage.Kind) storage.Value {
	switch kind {
	case storage.KInt:
		return storage.Int(int64(rng.IntN(2001) - 1000))
	case storage.KFloat:
		return storage.Float(float64(rng.IntN(4001)-2000) / 4)
	}
	return storage.Str(fmt.Sprintf("v%02d", rng.IntN(60)))
}

// orderKey is a row's group key, built apart from the code under test
// so that its bytes order as group order does: an int as its big-endian
// bits with the sign bit flipped, a float as its bits with the sign
// folded (so -0 sorts just before 0), a string followed by a NUL. No
// test value is a NaN or holds a NUL. Equal keys are one group.
func orderKey(row storage.Row) string {
	var buf []byte
	for _, v := range row {
		switch v.Kind {
		case storage.KInt:
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.I)^1<<63)
		case storage.KFloat:
			bits := math.Float64bits(v.F)
			if bits>>63 == 1 {
				bits = ^bits
			} else {
				bits |= 1 << 63
			}
			buf = binary.BigEndian.AppendUint64(buf, bits)
		default:
			buf = append(append(buf, v.S...), 0)
		}
	}
	return string(buf)
}

// sameValue is Value.Equal, but a float matches only its own bits: 0 and
// -0 are distinct group keys.
func sameValue(a, b storage.Value) bool {
	if a.Kind == storage.KFloat && b.Kind == storage.KFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.Equal(b)
}

// naiveMerge merges partial rows through a map by orderKey, orders
// the groups by that key and finalizes them. A global aggregate over no
// row is one zero row.
func naiveMerge(keys []storage.Kind, aggs []AggExpr, runs [][]storage.Row) []storage.Row {
	type group struct {
		row   storage.Row // key values, then one merged cell per aggregate
		count int64
		seen  []bool
		avg   []float64
	}
	groups := map[string]*group{}
	for _, run := range runs {
		for _, row := range run {
			key := orderKey(row[:len(keys)])
			g := groups[key]
			if g == nil {
				g = &group{row: slices.Clone(row[:len(keys)]), seen: make([]bool, len(aggs)), avg: make([]float64, len(aggs))}
				for range aggs {
					g.row = append(g.row, storage.Value{})
				}
				groups[key] = g
			}
			col, counted := len(keys), false
			for j, a := range aggs {
				cell, acc := row[col], &g.row[len(keys)+j]
				col++
				switch a.Fn {
				case AggCount:
				case AggAvg:
					g.avg[j] += cell.F
					cell = row[col]
					col++
				case AggSum:
					acc.Kind = cell.Kind
					acc.I += cell.I
					acc.F += cell.F
				default:
					if c := cell.Compare(*acc); !g.seen[j] || (a.Fn == AggMin && c < 0) || (a.Fn == AggMax && c > 0) {
						*acc, g.seen[j] = cell, true
					}
				}
				if (a.Fn == AggCount || a.Fn == AggAvg) && !counted {
					g.count += cell.I
					counted = true
				}
			}
		}
	}
	if len(keys) == 0 && len(groups) == 0 {
		g := &group{avg: make([]float64, len(aggs))}
		for _, a := range aggs {
			g.row = append(g.row, zeroOf(a))
		}
		groups[""] = g
	}
	order := make([]string, 0, len(groups))
	for k := range groups {
		order = append(order, k)
	}
	slices.Sort(order)
	var out []storage.Row
	for _, k := range order {
		g := groups[k]
		for j, a := range aggs {
			switch a.Fn {
			case AggCount:
				g.row[len(keys)+j] = storage.Int(g.count)
			case AggAvg:
				avg := g.avg[j]
				if g.count != 0 {
					avg /= float64(g.count)
				}
				g.row[len(keys)+j] = storage.Float(avg)
			default:
				if g.row[len(keys)+j].Kind != mergeSources[a.Col] {
					g.row[len(keys)+j] = zeroOf(a)
				}
			}
		}
		out = append(out, g.row)
	}
	return out
}

// zeroOf is aggregate a's value over no row.
func zeroOf(a AggExpr) storage.Value {
	switch {
	case a.Fn == AggCount:
		return storage.Int(0)
	case a.Fn == AggAvg:
		return storage.Float(0)
	}
	return storage.Value{Kind: mergeSources[a.Col]}
}

// runMergeSink feeds the runs to a MergePartials sink through its AC, as
// the producers' data messages arrive — interleaved at random, each
// producer's in order — and returns the result rows.
func runMergeSink(t *testing.T, rng *rand.Rand, c mergeCase, runs [][]storage.Row) []storage.Row {
	t.Helper()
	cols := make([]storage.Column, 0, len(c.keys)+2*len(c.aggs))
	spec := &SinkSpec{Query: 1, In: 64, GroupBy: make([]string, len(c.keys)), Aggs: c.aggs,
		MergePartials: true, Limit: -1, Notify: core.ClientAC}
	for k, kind := range c.keys {
		spec.GroupBy[k] = fmt.Sprintf("g%d", k)
		cols = append(cols, storage.Column{Name: spec.GroupBy[k], Kind: kind})
		spec.OutKinds = append(spec.OutKinds, kind)
	}
	for j, a := range c.aggs {
		kind := mergeSources[a.Col]
		switch a.Fn {
		case AggCount:
			kind = storage.KInt
			cols = append(cols, storage.Column{Name: fmt.Sprintf("p%d", j), Kind: kind})
		case AggAvg:
			kind = storage.KFloat
			cols = append(cols, storage.Column{Name: fmt.Sprintf("p%d_s", j), Kind: storage.KFloat},
				storage.Column{Name: fmt.Sprintf("p%d_c", j), Kind: storage.KInt})
		default:
			cols = append(cols, storage.Column{Name: fmt.Sprintf("p%d", j), Kind: kind})
		}
		spec.OutKinds = append(spec.OutKinds, kind)
	}
	for i := range spec.OutKinds {
		spec.OutCols = append(spec.OutCols, fmt.Sprintf("c%d", i))
		spec.OutSrc = append(spec.OutSrc, i)
	}
	partial := storage.NewSchema("partial", cols...)

	// Each producer's messages, in order: its batches, then Last.
	batch := func(rows []storage.Row) *storage.Batch {
		b := storage.GetBatch(partial)
		for _, r := range rows {
			b.AppendRow(r)
		}
		return b
	}
	queues := make([][]*core.DataMsg, len(runs))
	for p, run := range runs {
		var bs []*storage.Batch
		switch c.mode(p) {
		case runOne:
			bs = []*storage.Batch{batch(run)}
		case runSplit:
			cut := rng.IntN(len(run) + 1)
			bs = []*storage.Batch{batch(run[:cut]), batch(run[cut:])}
		case runEmpty:
			bs = []*storage.Batch{batch(nil)}
		}
		for i := 0; i <= len(bs); i++ {
			msg := core.GetDataMsg()
			msg.Stream, msg.Query, msg.Producers = spec.In, spec.Query, len(runs)
			if i < len(bs) {
				msg.Batch = bs[i]
			}
			msg.Last = i == len(bs)
			queues[p] = append(queues[p], msg)
		}
	}

	ac := core.NewAC(1)
	ctx := &flushSink{costs: sim.DefaultCosts()}
	(&Worker{}).newSink(ctx, ac, spec)
	for {
		var live []int
		for p, q := range queues {
			if len(q) > 0 {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			break
		}
		p := live[rng.IntN(len(live))]
		ac.HandleData(ctx, queues[p][0])
		queues[p] = queues[p][1:]
	}
	if ctx.resent == nil {
		t.Fatal("the sink reported no result")
	}
	res := ctx.resent.Payload.(*QueryResult)
	var rows []storage.Row
	for _, b := range res.Batches {
		for i := range b.Len() {
			rows = append(rows, b.Row(i))
		}
		storage.FreeBatch(b)
	}
	return rows
}

// TestSinkReuseNeedsEveryRun feeds one merging sink shape on one Worker
// held partial runs, as a shared scan's replays deliver them: the same
// runs in either order replay the kept result, and a run list that
// differs from the kept one in any single run — the first to arrive or
// the last — or has one run fewer or one more merges anew and answers
// from its own runs.
func TestSinkReuseNeedsEveryRun(t *testing.T) {
	spec := &SinkSpec{Query: 1, In: 64, GroupBy: []string{"g0"}, MergePartials: true,
		Aggs:     []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "f"}},
		OutCols:  []string{"g", "n", "sum"},
		OutKinds: []storage.Kind{storage.KStr, storage.KInt, storage.KFloat}, OutSrc: []int{0, 1, 2},
		Limit: -1, Notify: core.ClientAC}
	partial := storage.NewSchema("partial", storage.Column{Name: "g0", Kind: storage.KStr},
		storage.Column{Name: "p0", Kind: storage.KInt}, storage.Column{Name: "p1", Kind: storage.KFloat})
	// run is one partition's stored partial, held by the test as a memo
	// holds it.
	run := func(rows ...storage.Row) *storage.Batch {
		b := storage.GetBatch(partial)
		for _, r := range rows {
			b.AppendRow(r)
		}
		return b
	}
	S, I, F := storage.Str, storage.Int, storage.Float
	a0 := run(storage.Row{S("A"), I(1), F(1)}, storage.Row{S("B"), I(2), F(2)})
	a1 := run(storage.Row{S("A"), I(3), F(3)})
	b0 := run(storage.Row{S("A"), I(5), F(5)}, storage.Row{S("B"), I(2), F(2)})
	c1 := run(storage.Row{S("B"), I(4), F(4)})
	w := &Worker{}
	query := func(runs ...*storage.Batch) string {
		ac := core.NewAC(1)
		ctx := &flushSink{costs: sim.DefaultCosts()}
		w.newSink(ctx, ac, spec)
		for _, r := range runs {
			storage.HoldBatch(r) // the replay's hold, for the sink
			msg := core.GetDataMsg()
			msg.Stream, msg.Query, msg.Batch, msg.Last, msg.Producers = spec.In, spec.Query, r, true, len(runs)
			ac.HandleData(ctx, msg)
		}
		res := ctx.resent.Payload.(*QueryResult)
		var rows []storage.Row
		for _, b := range res.Batches {
			for i := range b.Len() {
				rows = append(rows, b.Row(i))
			}
			storage.FreeBatch(b)
		}
		return fmt.Sprint(rows)
	}
	for _, step := range []struct {
		name   string
		runs   []*storage.Batch
		want   string
		reused bool
	}{
		{"first merge", []*storage.Batch{a0, a1}, "[[A 4 4] [B 2 2]]", false},
		{"the same runs, reversed", []*storage.Batch{a1, a0}, "[[A 4 4] [B 2 2]]", true},
		{"the first run new", []*storage.Batch{b0, a1}, "[[A 8 8] [B 2 2]]", false},
		{"the last run new", []*storage.Batch{a1, c1}, "[[A 3 3] [B 4 4]]", false},
		{"one run fewer", []*storage.Batch{a1}, "[[A 3 3]]", false},
		{"one run more", []*storage.Batch{a1, c1}, "[[A 3 3] [B 4 4]]", false},
		{"those runs again, reversed", []*storage.Batch{c1, a1}, "[[A 3 3] [B 4 4]]", true},
	} {
		before := w.work.replayedSinks
		if got := query(step.runs...); got != step.want {
			t.Fatalf("%s: got %s, want %s", step.name, got, step.want)
		}
		want := 0
		if step.reused {
			want = 1
		}
		if d := w.work.replayedSinks - before; d != want {
			t.Fatalf("%s: replayed %d kept results, want %d", step.name, d, want)
		}
	}
	w.Release()
	for _, r := range []*storage.Batch{a0, a1, b0, c1} {
		storage.FreeBatch(r)
	}
}
