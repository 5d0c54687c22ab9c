package olap_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// joinRig wires one join operator on a single-AC cluster and feeds it
// hand-made batches; its database holds the probe table a held probe
// side scans.
type joinRig struct {
	cl   *core.SimCluster
	ac   core.ACID
	out  []storage.Row
	done bool
}

func newJoinRig(t *testing.T, db *storage.Database, spec *olap.JoinSpec) *joinRig {
	t.Helper()
	topo := core.NewTopology(db)
	ids := topo.AddServer(2)
	r := &joinRig{ac: ids[0]}
	r.cl = core.NewSimCluster(topo, sim.DefaultCosts(), func(ac *core.AC) {
		ac.Register(core.EvInstallOp, &olap.Worker{DB: db})
	})
	r.cl.SetClient(func(_ sim.Time, ev *core.Event) {
		if res, ok := ev.Payload.(*olap.QueryResult); ok {
			for _, b := range res.Batches {
				for i := 0; i < b.Len(); i++ {
					r.out = append(r.out, b.Row(i))
				}
				storage.FreeBatch(b)
			}
			r.done = true
		}
	})
	spec.Query, spec.Build, spec.Probe, spec.Out, spec.To, spec.Producers = 1, 1, 2, 3, ids[0], 1
	spec.Notify, spec.Label = core.NoAC, "j"
	for _, in := range spec.ProbeScans {
		in.At, in.Spec.To = ids[0], ids[0]
	}
	r.cl.Inject(ids[0], &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: spec}, 0)
	return r
}

// joinSide is one input of a join trial: nk int key columns named
// <p>k0.., then, when wide, a string, a float and an int tag payload
// column.
func joinSide(p string, nk int, wide bool) *storage.Schema {
	var cols []storage.Column
	for i := 0; i < nk; i++ {
		cols = append(cols, storage.Column{Name: fmt.Sprintf("%sk%d", p, i), Kind: storage.KInt})
	}
	if wide {
		cols = append(cols,
			storage.Column{Name: p + "s", Kind: storage.KStr},
			storage.Column{Name: p + "f", Kind: storage.KFloat},
			storage.Column{Name: p + "tag", Kind: storage.KInt})
	}
	return storage.NewSchema(p, cols...)
}

func colNames(s *storage.Schema) []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// sideRows makes one row of schema s per key, payload cells random.
func sideRows(rng *rand.Rand, s *storage.Schema, keys [][]int64) []storage.Row {
	rows := make([]storage.Row, len(keys))
	for i, k := range keys {
		row := make(storage.Row, 0, len(s.Cols))
		for _, v := range k {
			row = append(row, storage.Int(v))
		}
		if len(s.Cols) > len(k) {
			str := fmt.Sprintf("s%d", rng.Intn(50))
			row = append(row,
				storage.Str(str[:rng.Intn(len(str)+1)]),
				storage.Float(rng.NormFloat64()),
				storage.Int(int64(i)))
		}
		rows[i] = row
	}
	return rows
}

// keyShape draws one trial's build and probe keys.
type keyShape struct {
	name string
	keys func(rng *rand.Rand, nk int) (build, other [][]int64)
}

// keyShapes covers the join's build regimes: heavy duplication in a small
// domain, distinct keys in it, a large domain (box past the cap, chains
// past one ref), a box exactly at the cap and one cell past it, keys at
// MinInt64 and MaxInt64 (a span that overflows, and a box at the top of
// the range), and an empty build. other holds keys that may miss.
var keyShapes = []keyShape{
	{"small", func(rng *rand.Rand, nk int) ([][]int64, [][]int64) {
		return randKeys(rng, rng.Intn(30), nk, -3, 3), randKeys(rng, 20, nk, -3, 3)
	}},
	{"small-distinct", func(rng *rand.Rand, nk int) ([][]int64, [][]int64) {
		return distinct(randKeys(rng, rng.Intn(30), nk, -3, 3)), randKeys(rng, 20, nk, -4, 4)
	}},
	{"large", func(rng *rand.Rand, nk int) ([][]int64, [][]int64) {
		b := randKeys(rng, 7000, nk, -1<<40, 1<<40)
		// Re-use a fifth of the keys so chains grow past one ref.
		for i := len(b) * 4 / 5; i < len(b); i++ {
			b[i] = b[rng.Intn(len(b)*4/5)]
		}
		return b, randKeys(rng, 1500, nk, -1<<40, 1<<40)
	}},
	{"at-cap", func(rng *rand.Rand, nk int) ([][]int64, [][]int64) {
		return capKeys(rng, nk, olap.KeyBoxCap-1)
	}},
	{"past-cap", func(rng *rand.Rand, nk int) ([][]int64, [][]int64) {
		return capKeys(rng, nk, olap.KeyBoxCap)
	}},
	{"extremes", func(rng *rand.Rand, nk int) ([][]int64, [][]int64) {
		b := randKeys(rng, 20, nk, -3, 3)
		b[0][0], b[1][0] = math.MinInt64, math.MaxInt64
		o := randKeys(rng, 20, nk, -3, 3)
		o[0][0], o[1][0] = math.MaxInt64-1, math.MinInt64+1
		return b, o
	}},
	{"top", func(rng *rand.Rand, nk int) ([][]int64, [][]int64) {
		b := distinct(randKeys(rng, 20, nk, math.MaxInt64-5, math.MaxInt64))
		o := randKeys(rng, 20, nk, math.MaxInt64-7, math.MaxInt64)
		o[0][0] = math.MinInt64
		return b, o
	}},
	{"empty", func(rng *rand.Rand, nk int) ([][]int64, [][]int64) {
		return nil, randKeys(rng, 20, nk, -3, 3)
	}},
}

// randKeys draws n keys of nk columns from [lo, hi].
func randKeys(rng *rand.Rand, n, nk int, lo, hi int64) [][]int64 {
	keys := make([][]int64, n)
	for i := range keys {
		keys[i] = make([]int64, nk)
		for j := range keys[i] {
			keys[i][j] = lo + rng.Int63n(hi-lo) + rng.Int63n(2)
		}
	}
	return keys
}

// distinct drops repeated keys, keeping first occurrences in order.
func distinct(keys [][]int64) [][]int64 {
	seen := map[string]bool{}
	var out [][]int64
	for _, k := range keys {
		if s := fmt.Sprint(k); !seen[s] {
			seen[s] = true
			out = append(out, k)
		}
	}
	return out
}

// capKeys draws distinct keys whose box has span+1 cells: the first
// column spans span from a random origin, the others hold one value.
func capKeys(rng *rand.Rand, nk int, span int64) ([][]int64, [][]int64) {
	lo := rng.Int63n(1<<40) - 1<<39
	key := func(c0 int64) []int64 {
		k := make([]int64, nk)
		k[0] = c0
		for j := 1; j < nk; j++ {
			k[j] = 5
		}
		return k
	}
	build := [][]int64{key(lo), key(lo + span)}
	other := [][]int64{key(lo - 1), key(lo + span + 1)}
	for i := 0; i < 40; i++ {
		build = append(build, key(lo+1+rng.Int63n(span-1)))
		other = append(other, key(lo+rng.Int63n(span+1)))
	}
	return distinct(build), other
}

// TestJoinMatchesNestedLoopReference drives build/probe multisets through
// the join — 1–3 key columns; every key shape above; key-only builds,
// which the join answers from the key box's bitmap when their keys are
// distinct, and builds with string, float and int payloads, which keep
// a hash table; a probe side that is beamed (staged before the build
// closes), unfiltered (arriving after) or held (scanned from a table
// once the build closes, through the key filter); every output column
// or a subset — and compares the output rows, in emission order (probe
// row order, then build insertion order), against a nested loop.
func TestJoinMatchesNestedLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trial := 0
	for _, shape := range keyShapes {
		for _, wide := range []bool{false, true} {
			for _, side := range []string{"beamed", "unfiltered", "held"} {
				trial++
				nk := 1 + rng.Intn(3)
				bkeys, other := shape.keys(rng, nk)
				pkeys := make([][]int64, 0, len(other)*2)
				for _, k := range other {
					pkeys = append(pkeys, k)
					if len(bkeys) > 0 && rng.Intn(3) > 0 {
						pkeys = append(pkeys, bkeys[rng.Intn(len(bkeys))])
					}
				}
				bs, ps := joinSide("b", nk, wide), joinSide("p", nk, true)
				build, probe := sideRows(rng, bs, bkeys), sideRows(rng, ps, pkeys)
				what := fmt.Sprintf("trial %d (%s, nk=%d, wide=%v, %s probe)", trial, shape.name, nk, wide, side)

				// The output: every column of both sides, or a random
				// subset of each in random order.
				bOut, pOut := colNames(bs), colNames(ps)
				if trial%2 == 0 {
					bOut, pOut = subset(rng, bOut), subset(rng, pOut)
					if len(bOut)+len(pOut) == 0 {
						pOut = []string{"ptag"}
					}
				}
				spec := &olap.JoinSpec{BuildKey: colNames(bs)[:nk], ProbeKey: colNames(ps)[:nk], BuildOut: bOut, ProbeOut: pOut}
				db := storage.NewDatabase(1, ps)
				if side == "held" {
					tbl := db.Partition(0).Table("p")
					for i, row := range probe {
						if _, err := tbl.Insert(storage.MakeKey(0, 0, int64(i)), row); err != nil {
							t.Fatal(err)
						}
					}
					spec.ProbeScans = []olap.ScanInstall{{Spec: &olap.SharedScanSpec{
						Query: 1, Table: tbl.Schema.ID, Part: 0, Cols: colNames(ps), Out: 2, Producers: 1,
					}}}
				}
				r := newJoinRig(t, db, spec)
				// Split the inputs into several batches to exercise chunking.
				step := 7
				if len(build) > 1000 {
					step = 500 + rng.Intn(1500)
				}
				send := func(stream core.StreamID, schema *storage.Schema, rows []storage.Row, at sim.Time) {
					if len(rows) == 0 {
						r.cl.InjectData(r.ac, &core.DataMsg{Stream: stream, Last: true, Producers: 1}, at)
						return
					}
					for i := 0; i < len(rows); i += step {
						end := min(i+step, len(rows))
						b := storage.NewBatch(schema)
						for _, row := range rows[i:end] {
							b.AppendRow(row)
						}
						r.cl.InjectData(r.ac, &core.DataMsg{
							Stream: stream, Batch: b,
							Last: end == len(rows), Producers: 1,
						}, at+sim.Time(i))
					}
				}
				send(1, bs, build, 10)
				switch side {
				case "beamed":
					send(2, ps, probe, 5) // staged at the AC before the build closes
				case "unfiltered":
					send(2, ps, probe, 10*sim.Second)
				}
				out := append(append([]string(nil), bOut...), pOut...)
				kinds := make([]storage.Kind, len(out))
				for i, c := range out {
					if s := bs.Col(c); s >= 0 {
						kinds[i] = bs.Cols[s].Kind
					} else {
						kinds[i] = ps.Cols[ps.MustCol(c)].Kind
					}
				}
				r.cl.Inject(r.ac, &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: &olap.SinkSpec{
					Query: 1, In: 3, Cols: out, OutCols: out, OutKinds: kinds,
					Limit: -1, Notify: core.ClientAC,
				}}, 0)
				r.cl.Run()
				if !r.done {
					t.Fatalf("%s: join never completed", what)
				}

				// Reference: for each probe row in order, every build row
				// with an equal key, in build order, projected.
				var want []storage.Row
				for _, p := range probe {
					for _, b := range build {
						eq := true
						for c := 0; c < nk; c++ {
							eq = eq && b[c].I == p[c].I
						}
						if !eq {
							continue
						}
						var row storage.Row
						for _, c := range bOut {
							row = append(row, b[bs.MustCol(c)])
						}
						for _, c := range pOut {
							row = append(row, p[ps.MustCol(c)])
						}
						want = append(want, row)
					}
				}
				if shape.name != "empty" && len(want) == 0 {
					t.Fatalf("%s: no matches, the trial exercises nothing", what)
				}
				if len(want) > olap.CollectCap {
					t.Fatalf("%s: %d reference rows exceed the sink cap", what, len(want))
				}
				if len(r.out) != len(want) {
					t.Fatalf("%s: %d rows, want %d", what, len(r.out), len(want))
				}
				for i := range want {
					for c := range want[i] {
						if !r.out[i][c].Equal(want[i][c]) {
							t.Fatalf("%s: row %d = %v, want %v", what, i, r.out[i], want[i])
						}
					}
				}
			}
		}
	}
}

// subset returns a random subset of names in random order.
func subset(rng *rand.Rand, names []string) []string {
	var out []string
	for _, i := range rng.Perm(len(names)) {
		if rng.Intn(2) == 0 {
			out = append(out, names[i])
		}
	}
	return out
}
