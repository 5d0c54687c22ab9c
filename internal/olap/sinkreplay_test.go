package olap

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// sinkRig runs sinks on one AC and its Worker, one query each, feeding
// their streams from batches the rig holds the way a shared scan's memo
// or a join's kept output does: each delivery takes one more hold.
type sinkRig struct {
	t     *testing.T
	w     *Worker
	ac    *core.AC
	q     core.QueryID
	owned []*storage.Batch
}

func newSinkRig(t *testing.T) *sinkRig {
	core.TrackPools(true)
	t.Cleanup(func() { core.TrackPools(false) })
	return &sinkRig{t: t, w: &Worker{}, ac: core.NewAC(1)}
}

var rigIn = storage.NewSchema("in", storage.Column{Name: "k", Kind: storage.KInt},
	storage.Column{Name: "v", Kind: storage.KInt})

// batch returns a pooled batch of rigIn holding rows, kept by the rig
// until finish (or drop).
func (r *sinkRig) batch(rows ...[2]int64) *storage.Batch {
	b := storage.GetBatch(rigIn)
	for _, row := range rows {
		b.AppendValues(storage.Int(row[0]), storage.Int(row[1]))
	}
	r.owned = append(r.owned, b)
	return b
}

// drop gives back the rig's own hold on b, as a memo that stored newer
// batches does.
func (r *sinkRig) drop(b *storage.Batch) {
	i := slices.Index(r.owned, b)
	r.owned = slices.Delete(r.owned, i, i+1)
	storage.FreeBatch(b)
}

// sinkRun is one installed sink and the context that receives its
// result.
type sinkRun struct {
	spec SinkSpec
	ctx  *flushSink
}

// start installs a sink of spec's shape under a new query and stream.
func (r *sinkRig) start(spec SinkSpec) *sinkRun {
	r.q++
	spec.Query, spec.In, spec.Notify = r.q, core.StreamID(r.q), core.ClientAC
	run := &sinkRun{spec: spec, ctx: &flushSink{costs: sim.DefaultCosts()}}
	r.w.newSink(run.ctx, r.ac, &run.spec)
	return run
}

// send delivers batches on run's stream, each with one more hold.
func (r *sinkRig) send(run *sinkRun, batches ...*storage.Batch) {
	for _, b := range batches {
		storage.HoldBatch(b) // the delivery's hold, as a replay takes it
		msg := core.GetDataMsg()
		msg.Stream, msg.Query, msg.Batch, msg.Producers = run.spec.In, run.spec.Query, b, 1
		r.ac.HandleData(run.ctx, msg)
	}
}

// close ends run's stream and returns its result batches and rows as
// text, freeing the batches and the event as a consumer does.
func (r *sinkRig) close(run *sinkRun) ([]*storage.Batch, string) {
	r.t.Helper()
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = run.spec.In, run.spec.Query, true, 1
	r.ac.HandleData(run.ctx, msg)
	if run.ctx.resent == nil {
		r.t.Fatal("the sink reported no result")
	}
	res := run.ctx.resent.Payload.(*QueryResult)
	var rows []string
	for _, b := range res.Batches {
		for i := range b.Len() {
			rows = append(rows, fmt.Sprint(b.Row(i)))
		}
		storage.FreeBatch(b)
	}
	if int(res.Rows) != len(rows) {
		r.t.Fatalf("the result reports %d rows and carries %d", res.Rows, len(rows))
	}
	core.FreeEvent(run.ctx.resent)
	return res.Batches, strings.Join(rows, " ")
}

// run runs one sink of spec's shape over batches, delivered in order.
func (r *sinkRig) run(spec SinkSpec, batches ...*storage.Batch) ([]*storage.Batch, string) {
	run := r.start(spec)
	r.send(run, batches...)
	return r.close(run)
}

// finish frees the rig's batches and what the Worker keeps, and checks
// that no pooled object is left.
func (r *sinkRig) finish() {
	r.t.Helper()
	freeBatches(r.owned)
	r.w.Release()
	if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
		r.t.Errorf("pooled objects outstanding: %s", core.PoolBalanceString())
	}
}

// The sink shapes over rigIn the replay tests run: collecting, ordered
// and limited, a global aggregate and a grouped one.
var (
	rigCollect = SinkSpec{Cols: []string{"k", "v"}, OutCols: []string{"k", "v"},
		OutKinds: []storage.Kind{storage.KInt, storage.KInt}, Limit: -1}
	rigTopN = SinkSpec{Cols: []string{"k", "v"}, OutCols: []string{"k", "v"},
		OutKinds: []storage.Kind{storage.KInt, storage.KInt},
		OrderBy:  []OrderKey{{Col: 1, Desc: true}}, Limit: 4}
	rigGlobal = SinkSpec{Aggs: []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "v"}, {Fn: AggMin, Col: "v"}},
		OutCols: []string{"n", "sum", "min"}, OutKinds: []storage.Kind{storage.KInt, storage.KInt, storage.KInt},
		OutSrc: []int{0, 1, 2}, Limit: -1}
	rigGrouped = SinkSpec{GroupBy: []string{"k"}, Aggs: []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "v"}},
		OutCols: []string{"k", "n", "sum"}, OutKinds: []storage.Kind{storage.KInt, storage.KInt, storage.KInt},
		OutSrc: []int{0, 1, 2}, Limit: -1}
	rigShapes = map[string]SinkSpec{"collect": rigCollect, "top-N": rigTopN, "global": rigGlobal, "grouped": rigGrouped}
)

// naiveSink evaluates a sink of spec's shape (one of the rig's) over the
// rows of batches, in arrival order, in the rig's row format.
func naiveSink(spec SinkSpec, batches ...*storage.Batch) string {
	var rows [][]int64
	for _, b := range batches {
		for i := range b.Len() {
			rows = append(rows, []int64{b.Cols[0].Ints[i], b.Cols[1].Ints[i]})
		}
	}
	var out [][]int64
	switch {
	case len(spec.Aggs) == 0:
		for _, r := range rows {
			row := make([]int64, len(spec.Cols))
			for j, c := range spec.Cols {
				row[j] = r[rigIn.MustCol(c)]
			}
			out = append(out, row)
		}
	case len(spec.GroupBy) == 0:
		// COUNT(*), SUM(v) and MIN(v) or MAX(v).
		n, sum, ext := int64(len(rows)), int64(0), int64(0)
		isMax := spec.Aggs[2].Fn == AggMax
		for i, r := range rows {
			sum += r[1]
			if i == 0 || isMax && r[1] > ext || !isMax && r[1] < ext {
				ext = r[1]
			}
		}
		out = [][]int64{{n, sum, ext}}
	default:
		groups := map[int64][]int64{}
		for _, r := range rows {
			if groups[r[0]] == nil {
				groups[r[0]] = []int64{r[0], 0, 0}
			}
			groups[r[0]][1]++
			groups[r[0]][2] += r[1]
		}
		for _, g := range groups {
			out = append(out, g)
		}
		slices.SortFunc(out, func(a, b []int64) int { return cmp.Compare(a[0], b[0]) })
	}
	slices.SortStableFunc(out, func(a, b []int64) int {
		for _, k := range spec.OrderBy {
			if c := cmp.Compare(a[k.Col], b[k.Col]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	if spec.Limit >= 0 && len(out) > spec.Limit {
		out = out[:spec.Limit]
	}
	text := make([]string, len(out))
	for i, row := range out {
		vals := make(storage.Row, len(row))
		for j, v := range row {
			vals[j] = storage.Int(v)
		}
		text[i] = fmt.Sprint(vals)
	}
	return strings.Join(text, " ")
}

// rigBatches returns three batches of rows (k, v) with ties on v across
// batches and repeated keys.
func rigBatches(r *sinkRig) (b1, b2, b3 *storage.Batch) {
	return r.batch([2]int64{3, 7}, [2]int64{1, 2}, [2]int64{2, 9}),
		r.batch([2]int64{1, 7}, [2]int64{4, -5}),
		r.batch([2]int64{2, 4}, [2]int64{3, 9}, [2]int64{1, 0}, [2]int64{5, 7})
}

// TestSinkReplaysSameInputs runs each sink shape twice over the same
// held batches, the second time in another order: the second sink sends
// the first one's result batches — the same pointers — and the same
// answer, a naive evaluation's.
func TestSinkReplaysSameInputs(t *testing.T) {
	for name, spec := range rigShapes {
		t.Run(name, func(t *testing.T) {
			r := newSinkRig(t)
			b1, b2, b3 := rigBatches(r)
			want := naiveSink(spec, b1, b2, b3)
			first, got := r.run(spec, b1, b2, b3)
			if got != want {
				t.Fatalf("first run: got %s, want %s", got, want)
			}
			again, got := r.run(spec, b3, b1, b2)
			if got != want {
				t.Fatalf("second run: got %s, want %s", got, want)
			}
			if len(first) == 0 || !slices.Equal(again, first) {
				t.Fatalf("the second run sent batches %p, the first %p", again, first)
			}
			if r.w.work.replayedSinks != 1 {
				t.Fatalf("%d sinks replayed, want 1", r.w.work.replayedSinks)
			}
			r.finish()
		})
	}
}

// TestSinkReplayNeedsSameInputs runs each sink shape over three held
// batches, then over the same list with one batch replaced, one batch
// fewer or one batch more, each after the three again: every variant
// computes a fresh result — new batches, answering as a naive
// evaluation of its own inputs does — and only the runs over the three
// replay.
func TestSinkReplayNeedsSameInputs(t *testing.T) {
	for name, spec := range rigShapes {
		t.Run(name, func(t *testing.T) {
			r := newSinkRig(t)
			b1, b2, b3 := rigBatches(r)
			b4 := r.batch([2]int64{6, 1}, [2]int64{1, -9})
			kept, _ := r.run(spec, b1, b2, b3)
			for _, v := range []struct {
				name string
				in   []*storage.Batch
			}{
				{"one replaced", []*storage.Batch{b1, b4, b3}},
				{"the last replaced", []*storage.Batch{b1, b2, b4}},
				{"one fewer", []*storage.Batch{b2, b1}},
				{"one more", []*storage.Batch{b1, b2, b3, b4}},
			} {
				before := r.w.work.replayedSinks
				out, got := r.run(spec, v.in...)
				if want := naiveSink(spec, v.in...); got != want {
					t.Fatalf("%s: got %s, want %s", v.name, got, want)
				}
				if r.w.work.replayedSinks != before || slices.ContainsFunc(out, func(b *storage.Batch) bool { return slices.Contains(kept, b) }) {
					t.Fatalf("%s: the sink replayed the kept result", v.name)
				}
				// The three again: the variant's result replaced theirs.
				if kept, _ = r.run(spec, b1, b2, b3); r.w.work.replayedSinks != before {
					t.Fatalf("%s: the three after it replayed a result", v.name)
				}
			}
			if _, got := r.run(spec, b3, b2, b1); got != naiveSink(spec, b1, b2, b3) || r.w.work.replayedSinks != 1 {
				t.Fatalf("the three once more: got %s and %d replays, want %s and 1", got, r.w.work.replayedSinks, naiveSink(spec, b1, b2, b3))
			}
			r.finish()
		})
	}
}

// TestSinkShapesDoNotShareResults runs sinks that differ only in ORDER
// BY, in LIMIT, in projection, or in aggregate over the same held
// batches on one Worker: none may answer with another's kept result, so
// each first run of a shape computes and answers as a naive evaluation;
// a second run of a shape replays its own.
func TestSinkShapesDoNotShareResults(t *testing.T) {
	r := newSinkRig(t)
	b1, b2, b3 := rigBatches(r)
	byKey := rigTopN
	byKey.OrderBy = []OrderKey{{Col: 0}}
	limited := rigTopN
	limited.Limit = 2
	swapped := rigTopN
	swapped.Cols, swapped.OutCols = []string{"v", "k"}, []string{"v", "k"}
	maxed := rigGlobal
	maxed.Aggs = []AggExpr{{Fn: AggCount}, {Fn: AggSum, Col: "v"}, {Fn: AggMax, Col: "v"}}
	shapes := []SinkSpec{rigTopN, byKey, limited, swapped, rigGlobal, maxed}
	want := make([]string, len(shapes))
	for i, spec := range shapes {
		want[i] = naiveSink(spec, b1, b2, b3)
		if slices.Contains(want[:i], want[i]) {
			t.Fatalf("shape %d answers as an earlier shape does: the test cannot tell them apart", i)
		}
	}
	for i, spec := range shapes {
		if _, got := r.run(spec, b1, b2, b3); got != want[i] || r.w.work.replayedSinks != 0 {
			t.Fatalf("shape %d: got %s with %d replays, want %s and none", i, got, r.w.work.replayedSinks, want[i])
		}
	}
	for i, spec := range shapes {
		if _, got := r.run(spec, b2, b3, b1); got != want[i] || r.w.work.replayedSinks != i+1 {
			t.Fatalf("shape %d again: got %s with %d replays, want %s and %d", i, got, r.w.work.replayedSinks, want[i], i+1)
		}
	}
	r.finish()
}

// TestKeptResultOutlivesReplacement interleaves sinks of one shape on one
// AC. Two sinks open while the Worker keeps the result of batches x1 and
// x2 and start holding x1 back against it. A third sink of the shape then
// runs over other batches and replaces the kept result, and a sink of
// another shape draws pooled result batches; the "memo" gives up its
// holds on x1 and x2 once it delivered them. The first sink receives
// exactly x1 and x2 and must replay the replaced result, which its
// reference kept intact; the second receives a new batch after x1 and
// computes. Every answer must be a naive evaluation's, and no pooled
// object may be left.
func TestKeptResultOutlivesReplacement(t *testing.T) {
	r := newSinkRig(t)
	spec := rigGrouped
	x1, x2 := r.batch([2]int64{1, 5}, [2]int64{2, 1}), r.batch([2]int64{1, 1})
	y1, z := r.batch([2]int64{9, 9}), r.batch([2]int64{2, 2})
	if _, got := r.run(spec, x1, x2); got != naiveSink(spec, x1, x2) {
		t.Fatalf("the first sink: got %s", got)
	}
	a, b := r.start(spec), r.start(spec)
	r.send(a, x1)
	r.send(b, x1)
	if _, got := r.run(spec, y1); got != naiveSink(spec, y1) {
		t.Fatalf("the replacing sink: got %s", got)
	}
	if _, got := r.run(rigCollect, y1); got != naiveSink(rigCollect, y1) {
		t.Fatalf("the other shape: got %s", got)
	}
	r.send(a, x2)
	r.send(b, z)
	wantA, wantB := naiveSink(spec, x1, x2), naiveSink(spec, x1, z)
	r.drop(x1)
	r.drop(x2)
	if _, got := r.close(a); got != wantA {
		t.Fatalf("the sink holding back: got %s, want %s", got, wantA)
	}
	if r.w.work.replayedSinks != 1 {
		t.Fatalf("%d sinks replayed, want the one holding back", r.w.work.replayedSinks)
	}
	if _, got := r.close(b); got != wantB {
		t.Fatalf("the sink that stopped holding back: got %s, want %s", got, wantB)
	}
	r.finish()
}
