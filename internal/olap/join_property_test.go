package olap_test

import (
	"math/rand"
	"sort"
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

func newJoinRig(t *testing.T) *joinRig {
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
		Build: 1, BuildKey: []string{"bk"},
		Probe: 2, ProbeKey: []string{"pk"},
		Out: 3, To: ids[0], Producers: 1,
		Notify: core.NoAC, Label: "j",
	}
	r.cl.Inject(ids[0], &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: spec}, 0)
	return r
}

func intBatch(name, col string, vals []int64, base int) *storage.Batch {
	b := storage.NewBatch(storage.NewSchema(name,
		storage.Column{Name: col, Kind: storage.KInt},
		storage.Column{Name: col + "_tag", Kind: storage.KInt}))
	for i, v := range vals {
		b.AppendValues(storage.Int(v), storage.Int(int64(base+i)))
	}
	return b
}

// TestJoinMatchesNestedLoopReference drives random build/probe multisets
// through the streamed hash join and compares against a nested loop.
func TestJoinMatchesNestedLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		nb, np := rng.Intn(30), rng.Intn(40)
		build := make([]int64, nb)
		probe := make([]int64, np)
		for i := range build {
			build[i] = int64(rng.Intn(8))
		}
		for i := range probe {
			probe[i] = int64(rng.Intn(8))
		}

		r := newJoinRig(t)
		// Split build/probe into several batches to exercise chunking.
		sendChunks := func(stream core.StreamID, col string, vals []int64, at sim.Time) {
			if len(vals) == 0 {
				r.cl.InjectData(r.ac, &core.DataMsg{Stream: stream, Last: true, Producers: 1}, at)
				return
			}
			for i := 0; i < len(vals); i += 7 {
				end := i + 7
				if end > len(vals) {
					end = len(vals)
				}
				r.cl.InjectData(r.ac, &core.DataMsg{
					Stream: stream,
					Batch:  intBatch("b", col, vals[i:end], i),
					Last:   end == len(vals), Producers: 1,
				}, at+sim.Time(i))
			}
		}
		sendChunks(1, "bk", build, 10)
		sendChunks(2, "pk", probe, 5) // probe partly beamed before build done
		// A collecting sink on the join output, projecting the probe tag
		// (the output keeps the probe columns' names: bk and pk do not
		// collide).
		r.cl.Inject(r.ac, &core.Event{Kind: core.EvInstallOp, Query: 1, Payload: &olap.SinkSpec{
			Query: 1, In: 3, Cols: []string{"pk_tag"},
			OutCols: []string{"pk_tag"}, OutKinds: []storage.Kind{storage.KInt},
			Limit: -1, Notify: core.ClientAC,
		}}, 0)
		r.cl.Run()
		if !r.done {
			t.Fatalf("trial %d: join never completed", trial)
		}

		// Reference.
		var want []int64 // probe tags of emitted rows (with multiplicity)
		bset := make(map[int64]int)
		for _, b := range build {
			bset[b]++
		}
		for i, p := range probe {
			for k := 0; k < bset[p]; k++ {
				want = append(want, int64(i))
			}
		}
		var got []int64
		for _, row := range r.out {
			got = append(got, row[0].I)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: tag mismatch at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}
