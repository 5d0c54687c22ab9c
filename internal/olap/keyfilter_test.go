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

// keyTable builds a one-partition table of n rows whose three int key
// columns encode three ways in the chunk cache: k0 has 7 values
// (dictionary codes), k1 spans 10·n (more values than the int
// dictionary holds, so frame-of-reference) and k2 spans more than 2³²
// (raw).
func keyTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	schema := storage.NewSchema("keys",
		storage.Column{Name: "k0", Kind: storage.KInt},
		storage.Column{Name: "k1", Kind: storage.KInt},
		storage.Column{Name: "k2", Kind: storage.KInt},
		storage.Column{Name: "v", Kind: storage.KStr})
	tbl := storage.NewDatabase(1, schema).Partition(0).Table("keys")
	for i := 0; i < n; i++ {
		row := storage.Row{
			storage.Int(int64(i % 7)),
			storage.Int(int64(10 * i)),
			storage.Int(int64(i) << 34),
			storage.Str("x"),
		}
		if _, err := tbl.Insert(storage.MakeKey(0, 0, int64(i)), row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestKeyFilterKeepsEveryBuildKey hashes probe keys straight from the
// encoded chunk columns — dictionary, frame-of-reference and raw, in
// 1–3 column keys and column orders unlike the table's — and requires
// every row whose key is a build key to pass, while few of the others
// do. A false negative would silently drop join results; a false
// positive only costs the join a probe.
func TestKeyFilterKeepsEveryBuildKey(t *testing.T) {
	const n = 3 * storage.ColChunkRows
	tbl := keyTable(t, n)
	seen := map[storage.EncKind]bool{}
	for ci := 0; ci < tbl.NumColChunks(); ci++ {
		for _, v := range tbl.ColChunk(ci).Cols[:3] {
			seen[v.Enc] = true
		}
	}
	if !seen[storage.EncDict] || !seen[storage.EncFoR] || !seen[storage.EncRaw] {
		t.Fatalf("key columns do not cover every encoding: %v", seen)
	}

	rng := rand.New(rand.NewSource(5))
	for _, cols := range [][]string{{"k2"}, {"k1", "k0"}, {"k0", "k2", "k1"}, {"k1"}} {
		idx := colIdx(tbl.Schema, cols)
		keyOfRow := func(i int) joinKey {
			var k joinKey
			for j, c := range idx {
				k[j] = tbl.ColChunk(i / storage.ColChunkRows).Cols[c].Value(i % storage.ColChunkRows).I
			}
			return k
		}
		// Build on a random third of the rows' keys plus keys no row has.
		var ht joinTable
		build := map[joinKey]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				k := keyOfRow(i)
				build[k] = true
				ht.insert(k, storage.RowRef{})
			}
		}
		for i := 0; i < 500; i++ {
			ht.insert(joinKey{-1, int64(i), -3}, storage.RowRef{})
		}
		f := newKeyFilter(cols, &ht)

		var h []uint64
		var kept []int32
		passed, others := 0, 0
		for ci := 0; ci < tbl.NumColChunks(); ci++ {
			chunk := tbl.ColChunk(ci)
			sel := make([]int32, chunk.Len())
			for i := range sel {
				sel[i] = int32(i)
			}
			h, kept = f.keep(chunk, idx, sel, h, kept[:0])
			keep := map[int32]bool{}
			for _, m := range kept {
				keep[m] = true
			}
			for _, m := range sel {
				in := build[keyOfRow(ci*storage.ColChunkRows+int(m))]
				if in && !keep[m] {
					t.Fatalf("cols %v: row %d has a build key but was dropped", cols, ci*storage.ColChunkRows+int(m))
				}
				if !in {
					others++
					if keep[m] {
						passed++
					}
				}
			}
		}
		if others == 0 || float64(passed) > 0.03*float64(others) {
			t.Fatalf("cols %v: %d of %d rows without a build key passed", cols, passed, others)
		}
	}

	// An empty build side passes nothing.
	var empty joinTable
	chunk := tbl.ColChunk(0)
	if _, kept := newKeyFilter([]string{"k1"}, &empty).keep(chunk, colIdx(tbl.Schema, []string{"k1"}), []int32{0, 1, 2}, nil, nil); len(kept) != 0 {
		t.Fatalf("empty filter kept %v", kept)
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
	var ht joinTable
	var sel []int32
	for ci := 0; ci < cust.NumColChunks(); ci++ {
		chunk := cust.ColChunk(ci)
		sel = matchChunk(chunk, preds, sel)
		for _, m := range sel {
			var k joinKey
			for j, c := range idx {
				k[j] = chunk.Cols[c].Value(int(m)).I
			}
			ht.insert(k, storage.RowRef{})
		}
	}
	if len(ht.entries) == 0 {
		t.Fatal("no customer matches the build filter")
	}
	spec.Keys = newKeyFilter([]string{"o_w_id", "o_d_id", "o_c_id"}, &ht)
	return spec
}

// TestKeyedScanShipsOnlyJoinableRows runs Q3's orders scan with and
// without the build-key filter: the filtered pass must still ship every
// order of a matching customer (the rows the join emits), and far fewer
// rows overall.
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
		got[storage.MakeKey(int(r[0].I), int(r[1].I), r[3].I)] = true
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("joinable order %v was filtered out", k)
		}
	}
	if len(want) == 0 || len(kept) > len(want)+len(all)/50 {
		t.Fatalf("filtered scan shipped %d rows for %d joinable ones (unfiltered: %d)", len(kept), len(want), len(all))
	}
}

// BenchmarkKeyedScan is BenchmarkScanFlush for a join's held probe scan:
// one op is one pass of Q3's orders scan with its build-key filter, so
// matched rows are hashed straight off the encoded key columns and only
// the survivors are gathered. It must report 0 allocs/op: the hash and
// survivor scratch live in the registration.
//
//	go test -bench KeyedScan -benchmem ./internal/olap
func BenchmarkKeyedScan(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 1, Districts: 2, Customers: 3000,
		Items: 10, InitOrders: 3000, Seed: 7}.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, tpcc.Schemas()...)
	tpcc.Populate(db, cfg)
	benchScanPasses(b, db, keyedOrdersScan(b, db, true))
}
