package olap_test

import (
	"fmt"
	"math/rand"
	"testing"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// joinRig wires one join operator on a single-AC cluster and feeds it
// hand-made batches.
type joinRig struct {
	cl   *core.SimCluster
	ac   core.ACID
	out  []storage.Row
	done bool
}

func newJoinRig(t *testing.T, buildKey, probeKey []string) *joinRig {
	t.Helper()
	db := storage.NewDatabase(1,
		storage.NewSchema("t", storage.Column{Name: "x", Kind: storage.KInt}))
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
	spec := &olap.JoinSpec{
		Query: 1,
		Build: 1, BuildKey: buildKey,
		Probe: 2, ProbeKey: probeKey,
		Out: 3, To: ids[0], Producers: 1,
		Notify: core.NoAC, Label: "j",
	}
	r.cl.Inject(ids[0], &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: spec}, 0)
	return r
}

// joinSide is one input of a join trial: nk int key columns named
// <p>k0.., then a string, a float and an int tag payload column.
func joinSide(p string, nk int) *storage.Schema {
	var cols []storage.Column
	for i := 0; i < nk; i++ {
		cols = append(cols, storage.Column{Name: fmt.Sprintf("%sk%d", p, i), Kind: storage.KInt})
	}
	cols = append(cols,
		storage.Column{Name: p + "s", Kind: storage.KStr},
		storage.Column{Name: p + "f", Kind: storage.KFloat},
		storage.Column{Name: p + "tag", Kind: storage.KInt})
	return storage.NewSchema(p, cols...)
}

func keyNames(s *storage.Schema, nk int) []string {
	out := make([]string, nk)
	for i := range out {
		out[i] = s.Cols[i].Name
	}
	return out
}

// sideRows makes n rows of a joinSide schema whose keys come from key.
func sideRows(rng *rand.Rand, n, nk int, key func(i int) []int64) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		row := make(storage.Row, 0, nk+3)
		for _, k := range key(i) {
			row = append(row, storage.Int(k))
		}
		str := fmt.Sprintf("s%d", rng.Intn(50))
		rows[i] = append(row,
			storage.Str(str[:rng.Intn(len(str)+1)]),
			storage.Float(rng.NormFloat64()),
			storage.Int(int64(i)))
	}
	return rows
}

// TestJoinMatchesNestedLoopReference drives random build/probe multisets
// through the streamed hash join — 1–3 key columns, string and float
// payloads on both sides, small key domains with heavy duplication and
// large ones with thousands of distinct keys (several table growths) —
// and compares the full output rows, in emission order (probe row order,
// then build insertion order), against a nested loop.
func TestJoinMatchesNestedLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 48; trial++ {
		nk := 1 + trial%3
		large := trial%8 == 7
		nb, np, domain, step := rng.Intn(30), rng.Intn(40), int64(3), 7
		if large {
			nb, np, domain, step = 7000, 3000, 1<<40, 500+rng.Intn(1500)
		}
		randKey := func(int) []int64 {
			k := make([]int64, nk)
			for i := range k {
				k[i] = rng.Int63n(2*domain) - domain
			}
			return k
		}
		build := sideRows(rng, nb, nk, randKey)
		if large {
			// Re-use a fifth of the keys so chains grow past one ref.
			for i := nb * 4 / 5; i < nb; i++ {
				copy(build[i][:nk], build[rng.Intn(nb*4/5)][:nk])
			}
		}
		probe := sideRows(rng, np, nk, func(i int) []int64 {
			if nb > 0 && rng.Intn(2) == 0 {
				b, k := build[rng.Intn(nb)], make([]int64, nk)
				for c := range k {
					k[c] = b[c].I
				}
				return k
			}
			return randKey(i)
		})
		bs, ps := joinSide("b", nk), joinSide("p", nk)

		r := newJoinRig(t, keyNames(bs, nk), keyNames(ps, nk))
		// Split build/probe into several batches to exercise chunking.
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
		send(2, ps, probe, 5) // probe partly beamed before build done
		// A collecting sink on the join output, projecting every column
		// (build then probe; the names do not collide).
		out := storage.ConcatSchema("join_out", bs, ps)
		var cols []string
		var kinds []storage.Kind
		for _, c := range out.Cols {
			cols = append(cols, c.Name)
			kinds = append(kinds, c.Kind)
		}
		r.cl.Inject(r.ac, &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: &olap.SinkSpec{
			Query: 1, In: 3, Cols: cols, OutCols: cols, OutKinds: kinds,
			Limit: -1, Notify: core.ClientAC,
		}}, 0)
		r.cl.Run()
		if !r.done {
			t.Fatalf("trial %d: join never completed", trial)
		}

		// Reference: for each probe row in order, every build row with an
		// equal key, in build order.
		var want []storage.Row
		for _, p := range probe {
			for _, b := range build {
				eq := true
				for c := 0; c < nk; c++ {
					eq = eq && b[c].I == p[c].I
				}
				if eq {
					want = append(want, append(b.Clone(), p...))
				}
			}
		}
		if large && len(want) < np/2 {
			t.Fatalf("trial %d: only %d matches, the rig is not exercising chains", trial, len(want))
		}
		if len(want) > olap.CollectCap {
			t.Fatalf("trial %d: %d reference rows exceed the sink cap", trial, len(want))
		}
		if len(r.out) != len(want) {
			t.Fatalf("trial %d (nk=%d): %d rows, want %d", trial, nk, len(r.out), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if !r.out[i][c].Equal(want[i][c]) {
					t.Fatalf("trial %d (nk=%d): row %d = %v, want %v", trial, nk, i, r.out[i], want[i])
				}
			}
		}
	}
}
