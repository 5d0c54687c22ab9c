package olap

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// The aggregate oracle: every aggregate function over int, float and
// string columns, under every grouping shape and every way the engine
// can fold it, compared — values and row order — with a naive
// evaluation of the same rows.

const (
	oracleParts = 4
	oracleRows  = 3*storage.ColChunkRows + 300 // four chunks per partition
)

var oracleStates = []string{"TX", "AL", "NY", "AK", "CA", "OH", "WA", "AZ", "FL", "IL", "AR", "NV"}

// oracleDB returns a fresh four-partition table. Chunks build lazily, so
// a scan over it grows each column dictionary as it goes:
//   - k_s (string, 12 values), k_i (int, 9 values, negatives too) and
//     v_s (string, 500 values) are dictionary-coded from the first chunk;
//   - k_m (string) has 3 values in the first chunk and 150 more after it,
//     so a dense layout sized at the first chunk overflows mid-pass;
//   - k_n (int) has 5 values in the first chunk and 3 000 more after it:
//     its dictionary seals in the second chunk, so the chunks after the
//     first are not dictionary-coded at all;
//   - v_i (int, 5 000 values) seals its dictionary and is
//     frame-of-reference coded; v_w (int, spaced 2³³ apart) spans more
//     than 2³² per chunk and stays raw;
//   - v_f (float) holds quarter units, so every sum is exact in any order.
func oracleDB() *storage.Database {
	db := storage.NewDatabase(oracleParts, storage.NewSchema("facts",
		storage.Column{Name: "k_s", Kind: storage.KStr},
		storage.Column{Name: "k_i", Kind: storage.KInt},
		storage.Column{Name: "k_m", Kind: storage.KStr},
		storage.Column{Name: "k_n", Kind: storage.KInt},
		storage.Column{Name: "v_i", Kind: storage.KInt},
		storage.Column{Name: "v_w", Kind: storage.KInt},
		storage.Column{Name: "v_f", Kind: storage.KFloat},
		storage.Column{Name: "v_s", Kind: storage.KStr}))
	for p := 0; p < oracleParts; p++ {
		tab := db.Partition(p).Table("facts")
		for i := 0; i < oracleRows; i++ {
			km, kn := fmt.Sprintf("m%d", i%3), int64(i%5)
			if i >= storage.ColChunkRows {
				km, kn = fmt.Sprintf("m%d", 3+(i*7+p)%150), int64(5+(i*7+p)%3000)
			}
			tab.Append(storage.Row{
				storage.Str(oracleStates[(i*5+p)%len(oracleStates)]),
				storage.Int(int64((i*13+p)%9 - 4)),
				storage.Str(km),
				storage.Int(kn),
				storage.Int(int64((i*37+p*11)%5000 - 1200)),
				storage.Int(int64((i*31+p)%1500-300) << 33),
				storage.Float(float64((i*53+p)%400)/4 - 20),
				storage.Str(fmt.Sprintf("s%03d", (i*29+p)%500)),
			})
		}
	}
	return db
}

// oracleAggs is one query's aggregate list: every function, over int
// columns of each encoding, a float column and string columns.
var oracleAggs = []AggExpr{
	{Fn: AggCount},
	{Fn: AggSum, Col: "v_i"}, {Fn: AggSum, Col: "v_w"}, {Fn: AggSum, Col: "k_i"}, {Fn: AggSum, Col: "v_f"},
	{Fn: AggAvg, Col: "v_i"}, {Fn: AggAvg, Col: "v_w"}, {Fn: AggAvg, Col: "v_f"},
	{Fn: AggMin, Col: "v_i"}, {Fn: AggMax, Col: "v_i"}, {Fn: AggMin, Col: "v_w"}, {Fn: AggMax, Col: "k_i"},
	{Fn: AggMin, Col: "v_f"}, {Fn: AggMax, Col: "v_f"},
	{Fn: AggMin, Col: "v_s"}, {Fn: AggMax, Col: "v_s"}, {Fn: AggMax, Col: "k_s"},
}

// oraclePath is how the engine folds a case.
type oraclePath int

const (
	pathDense   oraclePath = iota // scan folds by packed dictionary codes, sink merges partials
	pathMap                       // scan folds by key map probes, sink merges partials
	pathMigrate                   // dense layout overflows mid-pass and turns keyed
	pathRaw                       // scans stream rows, the sink folds them itself
)

func (p oraclePath) String() string {
	return [...]string{"dense", "map", "dense→map", "raw"}[p]
}

// TestAggregateOracle runs each grouping under each fold path over four
// partitions and compares the result with oracleEval.
func TestAggregateOracle(t *testing.T) {
	cases := []struct {
		group []string
		path  oraclePath
	}{
		{nil, pathMap}, {nil, pathRaw},
		{[]string{"k_s"}, pathDense}, {[]string{"k_s"}, pathMap}, {[]string{"k_s"}, pathRaw},
		{[]string{"k_s", "k_i"}, pathDense}, {[]string{"k_s", "k_i"}, pathMap}, {[]string{"k_s", "k_i"}, pathRaw},
		{[]string{"k_i"}, pathDense}, {[]string{"k_i"}, pathMap}, {[]string{"k_i"}, pathRaw},
		{[]string{"k_m"}, pathMigrate}, {[]string{"k_i", "k_m"}, pathMigrate}, {[]string{"k_n"}, pathMigrate},
		// Float groupings never dictionary-encode, so the scan keys them
		// from the first row, as the planner plans them.
		{[]string{"v_f"}, pathMap}, {[]string{"k_s", "v_f"}, pathMap}, {[]string{"v_f"}, pathRaw},
	}
	for _, c := range cases {
		for _, order := range []bool{false, true} {
			name := fmt.Sprintf("%s/%s/ordered=%v", strings.Join(c.group, ","), c.path, order)
			t.Run(name, func(t *testing.T) {
				spec := oracleSink(oracleDB().Partition(0).Table("facts").Schema, c.group, c.path != pathRaw)
				if order {
					// ORDER BY COUNT(*) DESC, then the last aggregate
					// ascending, LIMIT 7: re-sorts the key-ordered groups
					// stably.
					spec.OrderBy = []OrderKey{{Col: len(c.group), Desc: true}, {Col: len(spec.OutCols) - 1}}
					spec.Limit = 7
				}
				want := oracleEval(oracleDB(), spec)
				got := runOracle(t, oracleDB(), spec, c.path)
				if len(got) != len(want) {
					t.Fatalf("%d rows, want %d", len(got), len(want))
				}
				if len(want) == 0 {
					t.Fatal("the oracle produced no rows")
				}
				for i := range want {
					if !slices.EqualFunc(got[i], want[i], storage.Value.Equal) {
						t.Fatalf("row %d:\n got %v\nwant %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// keepSink is a flushSink that keeps the rows of every batch sent.
type keepSink struct {
	flushSink
	kept []storage.Row
}

func (c *keepSink) SendData(to core.ACID, msg *core.DataMsg) {
	if b := msg.Batch; b != nil {
		for i := range b.Len() {
			c.kept = append(c.kept, b.Row(i))
		}
	}
	c.flushSink.SendData(to, msg)
}

// TestAggregateOraclePaths pins that the oracle's cases take the fold
// paths they are named after: a lone registration over a fresh partition
// keeps its dense layout through the pass for the dense groupings, and
// abandons it mid-pass for the migrating ones — still emitting one
// partial row per group. Each pass emits its partial rows in group order
// (by orderKey, strictly increasing), whether its table stayed
// dense, was keyed from the start, or turned keyed mid-pass; and a
// second registration, replayed from the memo, emits the same
// rows in the same order.
func TestAggregateOraclePaths(t *testing.T) {
	for _, c := range []struct {
		group []string
		dense bool
	}{
		{[]string{"k_s"}, true}, {[]string{"k_s", "k_i"}, true}, {[]string{"k_i"}, true},
		{[]string{"k_m"}, false}, {[]string{"k_i", "k_m"}, false}, {[]string{"k_n"}, false},
		{[]string{"v_f"}, false}, {[]string{"k_s", "v_f"}, false},
	} {
		db := oracleDB()
		tab := db.Partition(0).Table("facts")
		spec := &SharedScanSpec{Query: 1, Table: tab.Schema.ID, Part: 0,
			GroupBy: c.group, Aggs: oracleAggs, DictGroups: true, Out: 1, To: 1, Producers: 1}
		w := &Worker{DB: db}
		ctx := &keepSink{flushSink: flushSink{costs: sim.DefaultCosts()}}
		ev := core.GetEvent()
		ev.Kind, ev.Payload = core.EvInstallOp, spec
		w.OnEvent(ctx, nil, ev)
		r := w.shared[sharedKey{table: spec.Table, part: 0}].regs[0]
		for ev := ctx.resent; ev != nil; ev = ctx.resent {
			ctx.resent = nil
			w.OnEvent(ctx, nil, ev)
		}
		if r.denseOK != c.dense {
			t.Errorf("group %v: dense after the pass = %v, want %v", c.group, r.denseOK, c.dense)
		}
		folded := ctx.kept
		for i := 1; i < len(folded); i++ {
			if prev, cur := folded[i-1][:len(c.group)], folded[i][:len(c.group)]; orderKey(prev) >= orderKey(cur) {
				t.Fatalf("group %v: partial row %d %v follows %v: not in group order", c.group, i, cur, prev)
			}
		}
		ctx.kept = nil
		folds := w.work.folds
		replay := *spec
		ev = core.GetEvent()
		ev.Kind, ev.Payload = core.EvInstallOp, &replay
		w.OnEvent(ctx, nil, ev)
		if again := w.work.folds; again != folds || ctx.resent != nil {
			t.Fatalf("group %v: the second registration folded %d chunks, want a replay", c.group, again-folds)
		}
		if len(ctx.kept) != len(folded) {
			t.Fatalf("group %v: the replay sent %d partial rows, the pass %d", c.group, len(ctx.kept), len(folded))
		}
		for i := range folded {
			if !slices.EqualFunc(ctx.kept[i], folded[i], sameValue) {
				t.Fatalf("group %v: replayed partial row %d\n got %v\nwant %v", c.group, i, ctx.kept[i], folded[i])
			}
		}
		// One partial row per group: the groups folded before a migration
		// and after it are one set.
		groups := map[string]bool{}
		tab.Scan(func(_ int32, row storage.Row) bool {
			key := ""
			for _, g := range c.group {
				key += row[tab.Schema.MustCol(g)].String() + "\x00"
			}
			groups[key] = true
			return true
		})
		if len(folded) != len(groups) {
			t.Errorf("group %v: %d partial rows, want one per group (%d)", c.group, len(folded), len(groups))
		}
	}

	// The value columns cover every int encoding the folds decode, and
	// k_n is dictionary-coded in the first chunk only.
	tab := oracleDB().Partition(0).Table("facts")
	if tab.ColChunk(0).Cols[tab.Schema.MustCol("k_n")].Enc != storage.EncDict ||
		tab.ColChunk(1).Cols[tab.Schema.MustCol("k_n")].Enc == storage.EncDict {
		t.Fatal("k_n: want a dictionary-coded first chunk and no dictionary after it")
	}
	for col, enc := range map[string]storage.EncKind{"k_i": storage.EncDict, "v_i": storage.EncFoR, "v_w": storage.EncRaw} {
		for ci := 0; ci < tab.NumColChunks(); ci++ {
			if got := tab.ColChunk(ci).Cols[tab.Schema.MustCol(col)].Enc; got != enc {
				t.Fatalf("%s chunk %d encoding %v, want %v", col, ci, got, enc)
			}
		}
	}
}

// oracleSink returns the sink for one case: group columns then every
// aggregate of oracleAggs, in that order. merge selects a sink merging
// scan partials (otherwise it folds raw rows).
func oracleSink(schema *storage.Schema, group []string, merge bool) *SinkSpec {
	spec := &SinkSpec{Query: 1, In: 64, GroupBy: group, Aggs: oracleAggs,
		MergePartials: merge, Limit: -1, Notify: core.ClientAC}
	for _, g := range group {
		spec.OutCols = append(spec.OutCols, g)
		spec.OutKinds = append(spec.OutKinds, schema.Cols[schema.MustCol(g)].Kind)
	}
	for _, a := range oracleAggs {
		kind := storage.KInt
		switch a.Fn {
		case AggAvg:
			kind = storage.KFloat
		case AggCount:
		default:
			kind = schema.Cols[schema.MustCol(a.Col)].Kind
		}
		spec.OutCols = append(spec.OutCols, fmt.Sprintf("%v_%s", a.Fn, a.Col))
		spec.OutKinds = append(spec.OutKinds, kind)
	}
	for i := range spec.OutCols {
		spec.OutSrc = append(spec.OutSrc, i)
	}
	return spec
}

// runOracle runs sink on a sim cluster: one shared-scan registration per
// partition (partition owners on one server, the sink on another), each
// folding the way path says, and returns the result rows in order.
func runOracle(t *testing.T, db *storage.Database, sink *SinkSpec, path oraclePath) []storage.Row {
	t.Helper()
	tab := db.Partition(0).Table("facts")
	topo := core.NewTopology(db)
	owners, other := topo.AddServer(4), topo.AddServer(4)
	for p := 0; p < oracleParts; p++ {
		topo.SetOwner(p, owners[p])
	}
	var res *QueryResult
	cl := core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		ac.Register(core.EvInstallOp, &Worker{DB: db})
	})
	cl.SetClient(func(_ sim.Time, ev *core.Event) {
		if r, ok := ev.Payload.(*QueryResult); ok {
			res = r
		}
	})
	for p := 0; p < oracleParts; p++ {
		scan := &SharedScanSpec{Query: 1, Table: tab.Schema.ID, Part: p,
			Out: sink.In, To: other[0], Producers: oracleParts}
		if path == pathRaw {
			// Stream every column the sink groups or aggregates by.
			scan.Cols = []string{"k_s", "k_i", "k_m", "k_n", "v_i", "v_w", "v_f", "v_s"}
		} else {
			scan.GroupBy, scan.Aggs = sink.GroupBy, sink.Aggs
			scan.DictGroups = path != pathMap
		}
		cl.Inject(topo.Owner(p), &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: scan}, 0)
	}
	cl.Inject(other[0], &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: sink}, 0)
	cl.Run()
	if res == nil {
		t.Fatal("no result")
	}
	var rows []storage.Row
	for _, b := range res.Batches {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
	if res.Rows != int64(len(rows)) {
		t.Fatalf("result reports %d rows, carries %d", res.Rows, len(rows))
	}
	return rows
}

// oracleEval evaluates sink naively over every row of every partition:
// group the rows by their group values, compute each aggregate from a
// group's rows, order the groups by their values (orderKey) — or, with
// ORDER BY, stably by its keys after that — and apply LIMIT. A global
// aggregate over no rows would be one zero row; the table is never
// empty.
func oracleEval(db *storage.Database, sink *SinkSpec) []storage.Row {
	schema := db.Partition(0).Table("facts").Schema
	type group struct {
		key  string
		rows []storage.Row
	}
	groups := map[string]*group{}
	for p := 0; p < oracleParts; p++ {
		db.Partition(p).Table("facts").Scan(func(_ int32, r storage.Row) bool {
			var vals storage.Row
			for _, g := range sink.GroupBy {
				vals = append(vals, r[schema.MustCol(g)])
			}
			key := orderKey(vals)
			if groups[key] == nil {
				groups[key] = &group{key: key}
			}
			groups[key].rows = append(groups[key].rows, r.Clone())
			return true
		})
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var out []storage.Row
	for _, k := range keys {
		rows := groups[k].rows
		var res storage.Row
		for _, g := range sink.GroupBy {
			res = append(res, rows[0][schema.MustCol(g)])
		}
		for _, a := range sink.Aggs {
			if a.Fn == AggCount {
				res = append(res, storage.Int(int64(len(rows))))
				continue
			}
			c := schema.MustCol(a.Col)
			var sumI int64
			var sumF float64
			ext := rows[0][c]
			for _, r := range rows {
				v := r[c]
				sumI += v.I
				sumF += v.F + float64(v.I)
				if cmp := v.Compare(ext); (a.Fn == AggMin && cmp < 0) || (a.Fn == AggMax && cmp > 0) {
					ext = v
				}
			}
			switch {
			case a.Fn == AggAvg:
				res = append(res, storage.Float(sumF/float64(len(rows))))
			case a.Fn == AggSum && schema.Cols[c].Kind == storage.KInt:
				res = append(res, storage.Int(sumI))
			case a.Fn == AggSum:
				res = append(res, storage.Float(sumF))
			default:
				res = append(res, ext)
			}
		}
		out = append(out, res)
	}
	slices.SortStableFunc(out, func(a, b storage.Row) int {
		for _, k := range sink.OrderBy {
			if c := a[k.Col].Compare(b[k.Col]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	if sink.Limit >= 0 && len(out) > sink.Limit {
		out = out[:sink.Limit]
	}
	return out
}
