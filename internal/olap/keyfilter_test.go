package olap

import (
	"math"
	"math/rand"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// keyTable builds a one-partition table of n rows whose int key columns
// encode every way in the chunk cache: k0 has 7 values (dictionary
// codes), k1 spans 10·n (more values than the int dictionary holds, so
// frame-of-reference), k2 spans more than 2³² (raw), and k3 is 0–4 on
// even rows and past 2⁴⁰ on odd ones (raw, with a narrow build box).
func keyTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	schema := storage.NewSchema("keys",
		storage.Column{Name: "k0", Kind: storage.KInt},
		storage.Column{Name: "k1", Kind: storage.KInt},
		storage.Column{Name: "k2", Kind: storage.KInt},
		storage.Column{Name: "k3", Kind: storage.KInt},
		storage.Column{Name: "v", Kind: storage.KStr})
	tbl := storage.NewDatabase(1, schema).Partition(0).Table("keys")
	for i := 0; i < n; i++ {
		k3 := int64(i % 5)
		if i%2 == 1 {
			k3 = 1<<40 + int64(i)
		}
		row := storage.Row{
			storage.Int(int64(i % 7)),
			storage.Int(int64(10 * i)),
			storage.Int(int64(i) << 34),
			storage.Int(k3),
			storage.Str("x"),
		}
		if _, err := tbl.Insert(storage.MakeKey(0, 0, int64(i)), row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestKeyFilterKeepsEveryBuildKey filters probe keys straight off the
// encoded chunk columns — dictionary, frame-of-reference and raw, in
// 1–3 column keys and column orders unlike the table's. Where the build
// keys' box fits the cap, the filter must keep exactly the rows whose key
// is a build key; past the cap, exactly the rows inside the box. A false
// negative would silently drop join results, and a false positive ships
// a row the join cannot use.
func TestKeyFilterKeepsEveryBuildKey(t *testing.T) {
	const n = 3 * storage.ColChunkRows
	tbl := keyTable(t, n)
	seen := map[storage.EncKind]bool{}
	for ci := 0; ci < tbl.NumColChunks(); ci++ {
		for _, v := range tbl.ColChunk(ci).Cols[:4] {
			seen[v.Enc] = true
		}
	}
	if !seen[storage.EncDict] || !seen[storage.EncFoR] || !seen[storage.EncRaw] {
		t.Fatalf("key columns do not cover every encoding: %v", seen)
	}

	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		cols  []string
		even  bool // build on even rows only
		upto  int  // build on rows below
		exact bool // the box fits the cap
	}{
		{[]string{"k1"}, false, n, true},
		{[]string{"k1", "k0"}, false, n, true},
		{[]string{"k3", "k0"}, true, n, true},
		{[]string{"k0", "k3", "k1"}, true, storage.ColChunkRows, true},
		{[]string{"k2"}, false, n, false},
		{[]string{"k0", "k2", "k1"}, false, n, false},
	} {
		idx := colIdx(tbl.Schema, c.cols)
		keyOfRow := func(i int) []int64 {
			k := make([]int64, len(idx))
			for j, col := range idx {
				k[j] = tbl.ColChunk(i / storage.ColChunkRows).Cols[col].Value(i % storage.ColChunkRows).I
			}
			return k
		}
		// Build on a random third of the rows' keys, some twice.
		var keys [][]int64
		build := map[[MaxJoinKeys]int64]bool{}
		lo, hi := make([]int64, len(idx)), make([]int64, len(idx))
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 || c.even && i%2 == 1 || i >= c.upto {
				continue
			}
			k := keyOfRow(i)
			keys = append(keys, k)
			if rng.Intn(4) == 0 {
				keys = append(keys, k)
			}
			var jk [MaxJoinKeys]int64
			copy(jk[:], k)
			if len(build) == 0 {
				copy(lo, k)
				copy(hi, k)
			}
			build[jk] = true
			for j := range k {
				lo[j], hi[j] = min(lo[j], k[j]), max(hi[j], k[j])
			}
		}
		f := KeyFilterOf(c.cols, keys)
		if (f.Bits != nil) != c.exact {
			t.Fatalf("cols %v: bitmap %v, want %v (spans %v)", c.cols, f.Bits != nil, c.exact, f.Span)
		}
		ks := newKeyScan(tbl.Schema, f)
		kept, wantKept := 0, 0
		for ci := 0; ci < tbl.NumColChunks(); ci++ {
			chunk := tbl.ColChunk(ci)
			keep := map[int32]bool{}
			for _, m := range ks.keep(chunk, identity(nil, chunk.Len())) {
				keep[m] = true
			}
			kept += len(keep)
			for m := range int32(chunk.Len()) {
				k := keyOfRow(ci*storage.ColChunkRows + int(m))
				var jk [MaxJoinKeys]int64
				copy(jk[:], k)
				want := build[jk]
				if !c.exact {
					want = true
					for j := range k {
						want = want && lo[j] <= k[j] && k[j] <= hi[j]
					}
				}
				if want != keep[m] {
					t.Fatalf("cols %v: row %d key %v kept=%v, want %v", c.cols, ci*storage.ColChunkRows+int(m), k, keep[m], want)
				}
				if want {
					wantKept++
				}
			}
		}
		if wantKept == 0 || kept != wantKept {
			t.Fatalf("cols %v: kept %d rows, want %d", c.cols, kept, wantKept)
		}
	}

	// An empty build side passes nothing.
	f := KeyFilterOf([]string{"k1"}, nil)
	if len(f.Bits) != 1 || f.Bits[0] != 0 {
		t.Fatalf("empty build's filter = %+v, want a one-cell box with no bit set", f)
	}
	if kept := newKeyScan(tbl.Schema, f).keep(tbl.ColChunk(0), []int32{0, 1, 2}); len(kept) != 0 {
		t.Fatalf("empty filter kept %v", kept)
	}
}

// TestBoxWordsBounds pins the box arithmetic the wire checks: a box
// exactly at the cap gets a bitmap and one cell past it does not, a span
// running past MaxInt64 (or a key width outside 1..MaxJoinKeys) is
// malformed, and MinInt64..MaxInt64 is a valid box past the cap.
func TestBoxWordsBounds(t *testing.T) {
	for _, c := range []struct {
		lo    []int64
		span  []uint64
		words int
		ok    bool
	}{
		{[]int64{0}, []uint64{0}, 1, true},
		{[]int64{-5}, []uint64{64}, 2, true},
		{[]int64{0, 0}, []uint64{1<<10 - 1, 1<<11 - 1}, KeyBoxCap / 64, true},
		{[]int64{0, 0}, []uint64{1 << 10, 1<<11 - 1}, 0, true},
		{[]int64{0, 0, 0}, []uint64{1, 1, KeyBoxCap/4 - 1}, KeyBoxCap / 64, true},
		{[]int64{0}, []uint64{KeyBoxCap}, 0, true},
		{[]int64{math.MinInt64}, []uint64{math.MaxUint64}, 0, true},
		{[]int64{math.MaxInt64}, []uint64{0}, 1, true},
		{[]int64{math.MaxInt64}, []uint64{1}, 0, false},
		{[]int64{1}, []uint64{math.MaxUint64}, 0, false},
		{nil, nil, 0, false},
		{[]int64{0, 0, 0, 0}, []uint64{0, 0, 0, 0}, 0, false},
		{[]int64{0}, []uint64{0, 0}, 0, false},
	} {
		if words, ok := BoxWords(c.lo, c.span); words != c.words || ok != c.ok {
			t.Errorf("BoxWords(%v, %v) = %d, %v; want %d, %v", c.lo, c.span, words, ok, c.words, c.ok)
		}
	}
}

// keyedOrdersScan returns Q3's first join's probe-side registration on
// one warehouse — orders since Q3SinceYear, projected onto the join key
// and o_id — and, with keys set, the filter over the customers with
// c_state LIKE 'A%' that join builds on.
func keyedOrdersScan(t testing.TB, db *storage.Database, keys bool) *SharedScanSpec {
	spec := &SharedScanSpec{
		Query: 1, Table: tpcc.TOrdersID, Part: 0,
		Filters: []Predicate{{Col: "o_entry_d", Kind: PredIn, Lo: tpcc.Q3SinceYear, Hi: math.MaxInt64}},
		Cols:    []string{"o_w_id", "o_d_id", "o_c_id", "o_id"},
		Out:     2, To: 1, Producers: 1,
	}
	if !keys {
		return spec
	}
	cust := db.Partition(0).TableByID(tpcc.TCustomerID)
	preds := []compiledPred{compilePred(cust.Schema, Predicate{Col: "c_state", Kind: PredPrefix, Str: tpcc.Q3StatePrefix})}
	idx := colIdx(cust.Schema, []string{"c_w_id", "c_d_id", "c_id"})
	var build [][]int64
	var sel []int32
	for ci := 0; ci < cust.NumColChunks(); ci++ {
		chunk := cust.ColChunk(ci)
		sel = matchChunk(chunk, preds, sel)
		for _, m := range sel {
			k := make([]int64, len(idx))
			for j, c := range idx {
				k[j] = chunk.Cols[c].Value(int(m)).I
			}
			build = append(build, k)
		}
	}
	if len(build) == 0 {
		t.Fatal("no customer matches the build filter")
	}
	spec.Keys = KeyFilterOf([]string{"o_w_id", "o_d_id", "o_c_id"}, build)
	if spec.Keys.Bits == nil {
		t.Fatalf("customer key box %v is past the cap", spec.Keys.Span)
	}
	return spec
}

// TestKeyedScanShipsOnlyJoinableRows runs Q3's orders scan with and
// without the build-key filter: the filtered pass must ship exactly the
// orders of matching customers (the rows the join emits), each once.
func TestKeyedScanShipsOnlyJoinableRows(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 3000, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	want := map[storage.Key]bool{} // (w, d, o_id) of every joinable order
	cust := map[storage.Key]bool{}
	ct := db.Partition(0).Table(tpcc.TCustomer)
	cw, cd, cc, sc := ct.Schema.MustCol("c_w_id"), ct.Schema.MustCol("c_d_id"),
		ct.Schema.MustCol("c_id"), ct.Schema.MustCol("c_state")
	ct.Scan(func(_ int32, r storage.Row) bool {
		if len(r[sc].S) > 0 && r[sc].S[:1] == tpcc.Q3StatePrefix {
			cust[storage.MakeKey(int(r[cw].I), int(r[cd].I), r[cc].I)] = true
		}
		return true
	})
	ot := db.Partition(0).Table(tpcc.TOrders)
	ow, od, oid, oc, oy := ot.Schema.MustCol("o_w_id"), ot.Schema.MustCol("o_d_id"),
		ot.Schema.MustCol("o_id"), ot.Schema.MustCol("o_c_id"), ot.Schema.MustCol("o_entry_d")
	ot.Scan(func(_ int32, r storage.Row) bool {
		if r[oy].I >= tpcc.Q3SinceYear && cust[storage.MakeKey(int(r[ow].I), int(r[od].I), r[oc].I)] {
			want[storage.MakeKey(int(r[ow].I), int(r[od].I), r[oid].I)] = true
		}
		return true
	})

	shipped := func(keys bool) []storage.Row {
		w := &Worker{DB: db}
		ctx := &joinCollect{flushSink: flushSink{costs: sim.DefaultCosts()}}
		ev := core.GetEvent()
		ev.Kind, ev.Payload = core.EvInstallOp, keyedOrdersScan(t, db, keys)
		for ev != nil {
			ctx.resent = nil
			w.OnEvent(ctx, nil, ev)
			ev = ctx.resent
		}
		return ctx.out
	}
	all, kept := shipped(false), shipped(true)
	got := map[storage.Key]bool{}
	for _, r := range kept {
		k := storage.MakeKey(int(r[0].I), int(r[1].I), r[3].I)
		if !want[k] {
			t.Fatalf("filtered scan shipped order %v, whose customer is not in the build", k)
		}
		got[k] = true
	}
	if len(want) == 0 || len(kept) != len(want) || len(got) != len(want) || len(all) <= len(want) {
		t.Fatalf("filtered scan shipped %d rows (%d distinct) for %d joinable ones (unfiltered: %d)",
			len(kept), len(got), len(want), len(all))
	}
}

// BenchmarkKeyedScan is BenchmarkScanFlush for a join's held probe scan:
// one op is one pass of Q3's orders scan with its build-key filter, on
// unchanged data, so every chunk's kept rows come from the memo and only
// the survivors are gathered. It must report 0 allocs/op.
//
//	go test -bench KeyedScan -benchmem ./internal/olap
func BenchmarkKeyedScan(b *testing.B) {
	db := keyedScanDB()
	benchScanPasses(b, db, keyedOrdersScan(b, db, true))
}

// BenchmarkStaleKeyedScan is BenchmarkKeyedScan behind a write of the
// filtered column o_entry_d in every chunk before each pass, so every
// chunk misses the memo: the filter's matches are range-checked and
// looked up in the key box's bitmap straight off the encoded key
// columns, and the survivors are stored into the memo. It must report 0
// allocs/op: the offset and survivor scratch live in the memo's
// signature, the kept rows in its entries.
//
//	go test -bench StaleKeyedScan -benchmem ./internal/olap
func BenchmarkStaleKeyedScan(b *testing.B) {
	db := keyedScanDB()
	benchScanPasses(b, db, keyedOrdersScan(b, db, true),
		rewriteEveryChunk(db.Partition(0).TableByID(tpcc.TOrdersID), "o_entry_d"))
}

// keyedScanDB returns the one-partition database the keyed scan
// benchmarks run over.
func keyedScanDB() *storage.Database {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 3000, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	return db
}
