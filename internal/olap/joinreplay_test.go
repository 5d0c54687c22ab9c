package olap

import (
	"fmt"
	"slices"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// outRecorder is a stub context that plays the join's output consumer:
// it records each output message — its batch, which it then frees as a
// consumer does, its rows and its end of stream.
type outRecorder struct {
	flushSink
	batches []*storage.Batch
	rows    []string
	msgs    int
	lastAt  int // the message that carried the end of stream, -1 none
}

func (c *outRecorder) SendData(_ core.ACID, msg *core.DataMsg) {
	if msg.Last {
		if c.lastAt >= 0 {
			panic("a second end of stream")
		}
		c.lastAt = c.msgs
	}
	c.msgs++
	if b := msg.Batch; b != nil {
		c.batches = append(c.batches, b)
		for i := range b.Len() {
			c.rows = append(c.rows, fmt.Sprint(b.Row(i)))
		}
		storage.FreeBatch(b)
	}
	core.FreeDataMsg(msg)
}

// replayRig runs joins on one AC and its Worker, one query each, feeding
// their build and probe streams from batches the rig holds the way a
// shared scan's memo does: each delivery takes one more hold.
type replayRig struct {
	t     *testing.T
	w     *Worker
	ac    *core.AC
	q     core.QueryID
	owned []*storage.Batch
}

func newReplayRig(t *testing.T) *replayRig {
	core.TrackPools(true)
	t.Cleanup(func() { core.TrackPools(false) })
	return &replayRig{t: t, w: &Worker{}, ac: core.NewAC(1)}
}

var (
	rigBuild = storage.NewSchema("b", storage.Column{Name: "bk", Kind: storage.KInt},
		storage.Column{Name: "bv", Kind: storage.KInt})
	rigProbe = storage.NewSchema("p", storage.Column{Name: "pk", Kind: storage.KInt},
		storage.Column{Name: "pv", Kind: storage.KInt})
)

// batch returns a pooled batch of schema s holding rows, kept by the rig
// until finish.
func (r *replayRig) batch(s *storage.Schema, rows ...[2]int64) *storage.Batch {
	b := storage.GetBatch(s)
	for _, row := range rows {
		b.AppendValues(storage.Int(row[0]), storage.Int(row[1]))
	}
	r.owned = append(r.owned, b)
	return b
}

// joinRun is one installed join and the context that records its
// output.
type joinRun struct {
	spec JoinSpec
	ctx  *outRecorder
}

// start installs a join of spec's keys and projection under a new query
// and streams.
func (r *replayRig) start(spec JoinSpec) *joinRun {
	r.q++
	spec.Query, spec.Build, spec.Probe, spec.Out = r.q, core.StreamID(3*r.q), core.StreamID(3*r.q+1), core.StreamID(3*r.q+2)
	spec.To, spec.Producers, spec.Notify = 1, 1, core.NoAC
	run := &joinRun{spec: spec, ctx: &outRecorder{flushSink: flushSink{costs: sim.DefaultCosts()}, lastAt: -1}}
	r.w.newJoin(run.ctx, r.ac, &run.spec)
	return run
}

// send delivers batches on stream sid of run, each with one more hold,
// the last with the end of stream when last is set (alone, when there
// are none).
func (r *replayRig) send(run *joinRun, sid core.StreamID, last bool, batches ...*storage.Batch) {
	for i, b := range batches {
		storage.HoldBatch(b) // the delivery's hold, as a replay takes it
		msg := core.GetDataMsg()
		msg.Stream, msg.Query, msg.Batch, msg.Last, msg.Producers = sid, run.spec.Query, b, last && i == len(batches)-1, 1
		r.ac.HandleData(run.ctx, msg)
	}
	if last && len(batches) == 0 {
		msg := core.GetDataMsg()
		msg.Stream, msg.Query, msg.Last, msg.Producers = sid, run.spec.Query, true, 1
		r.ac.HandleData(run.ctx, msg)
	}
	if last && sid == run.spec.Probe && run.ctx.lastAt != run.ctx.msgs-1 {
		r.t.Fatalf("the join's end of stream came with message %d of %d", run.ctx.lastAt, run.ctx.msgs)
	}
}

// run runs one join of spec's keys and projection over build and probe,
// delivered in order, and returns what it sent.
func (r *replayRig) run(spec JoinSpec, build, probe []*storage.Batch) *outRecorder {
	run := r.start(spec)
	r.send(run, run.spec.Build, true, build...)
	r.send(run, run.spec.Probe, true, probe...)
	return run.ctx
}

// drop gives back the rig's own hold on b, as a memo that stored newer
// batches does.
func (r *replayRig) drop(b *storage.Batch) {
	i := slices.Index(r.owned, b)
	r.owned = slices.Delete(r.owned, i, i+1)
	storage.FreeBatch(b)
}

// finish frees the rig's batches and what the Worker keeps, and checks
// that no pooled object is left.
func (r *replayRig) finish() {
	r.t.Helper()
	freeBatches(r.owned)
	r.w.Release()
	if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
		r.t.Errorf("pooled objects outstanding: %s", core.PoolBalanceString())
	}
}

// naiveJoin is the inner equi-join of spec over build and probe, on the
// first column of each, in the recorder's row format, sorted.
func naiveJoin(spec JoinSpec, build, probe []*storage.Batch) []string {
	var out []string
	for _, pb := range probe {
		for pr := range pb.Len() {
			for _, bb := range build {
				for br := range bb.Len() {
					if bb.Value(br, 0) != pb.Value(pr, 0) {
						continue
					}
					var row storage.Row
					for _, c := range spec.BuildOut {
						row = append(row, bb.Value(br, bb.Schema.MustCol(c)))
					}
					for _, c := range spec.ProbeOut {
						row = append(row, pb.Value(pr, pb.Schema.MustCol(c)))
					}
					out = append(out, fmt.Sprint(row))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// sorted returns rows sorted, leaving rows as they are.
func sorted(rows []string) []string {
	return slices.Sorted(slices.Values(rows))
}

// rowDiff describes how rows got differ from rows want: their counts and
// the first row where they part.
func rowDiff(got, want []string) string {
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	g, w := "none", "none"
	if i < len(got) {
		g = got[i]
	}
	if i < len(want) {
		w = want[i]
	}
	return fmt.Sprintf("%d rows for %d, row %d is %s, want %s", len(got), len(want), i, g, w)
}

// rigData returns a build of keys 0..59, key k in batch k%3 with payload
// 10k and keys below 10 twice (so the join keeps a hash table), and four
// 600-row probe batches whose keys cycle through 0..119, half of them
// matching: the output takes two batches.
func rigData(r *replayRig) (build, probe []*storage.Batch) {
	rows := make([][][2]int64, 3)
	for k := range int64(60) {
		rows[k%3] = append(rows[k%3], [2]int64{k, 10 * k})
		if k < 10 {
			rows[k%3] = append(rows[k%3], [2]int64{k, 10*k + 1})
		}
	}
	for _, rs := range rows {
		build = append(build, r.batch(rigBuild, rs...))
	}
	for i := range int64(4) {
		var rs [][2]int64
		for j := i * 600; j < (i+1)*600; j++ {
			rs = append(rs, [2]int64{j % 120, j})
		}
		probe = append(probe, r.batch(rigProbe, rs...))
	}
	return build, probe
}

var rigSpec = JoinSpec{BuildKey: []string{"bk"}, ProbeKey: []string{"pk"},
	BuildOut: []string{"bk", "bv"}, ProbeOut: []string{"pv"}}

// TestJoinOutputReplays feeds a join on a Worker the build and probe
// batches of the last join of its shape: it reuses the build and sends
// the kept output — the same batches, the last with the end of stream —
// in place of probing, also when the probe batches come in another
// order. The answer is the naive join's.
func TestJoinOutputReplays(t *testing.T) {
	r := newReplayRig(t)
	build, probe := rigData(r)
	want := naiveJoin(rigSpec, build, probe)
	first := r.run(rigSpec, build, probe)
	if got := sorted(first.rows); !slices.Equal(got, want) {
		t.Fatalf("the first join answered %s", rowDiff(got, want))
	}
	for _, order := range [][]*storage.Batch{probe, {probe[2], probe[0], probe[3], probe[1]}} {
		before := r.w.work
		again := r.run(rigSpec, build, order)
		if d := r.w.work.replayedJoins - before.replayedJoins; d != 1 || r.w.work.reusedBuilds-before.reusedBuilds != 1 {
			t.Fatalf("the join again replayed %d outputs and reused %d builds, want 1 and 1", d, r.w.work.reusedBuilds-before.reusedBuilds)
		}
		if !slices.Equal(again.batches, first.batches) || !slices.Equal(again.rows, first.rows) {
			t.Fatalf("the replay sent other batches or rows than the first join")
		}
		if len(first.batches) < 2 || again.msgs != len(first.batches) {
			t.Fatalf("the replay sent %d messages for %d batches", again.msgs, len(first.batches))
		}
	}
	r.finish()
}

// TestJoinOutputReplayNeedsEveryBatch: a probe stream that delivers other
// batches than the kept output's — one batch replaced, a batch added
// after held-back ones, or one batch short — is probed, and each answer
// is the naive join's. A batch outside the list ends the hold-back, so
// the output rows come in the order a join probing the same stream from
// its start sends them.
func TestJoinOutputReplayNeedsEveryBatch(t *testing.T) {
	r := newReplayRig(t)
	build, probe := rigData(r)
	r.run(rigSpec, build, probe)
	extra := r.batch(rigProbe, [2]int64{5, 7}, [2]int64{500, 8}, [2]int64{9, 9})
	for _, c := range []struct {
		what  string
		probe []*storage.Batch
	}{
		{"one batch replaced", []*storage.Batch{probe[0], probe[1], extra, probe[3]}},
		{"a batch after held-back ones", []*storage.Batch{probe[0], probe[1], extra, probe[2], probe[3]}},
		{"one batch short", probe[:3]},
		{"a batch twice", []*storage.Batch{probe[0], probe[1], probe[2], probe[2]}},
	} {
		before := r.w.work
		got := r.run(rigSpec, build, c.probe)
		if d := r.w.work.replayedJoins - before.replayedJoins; d != 0 {
			t.Fatalf("%s: the join replayed %d outputs", c.what, d)
		}
		if want := naiveJoin(rigSpec, build, c.probe); !slices.Equal(sorted(got.rows), want) {
			t.Fatalf("%s: the join answered %s", c.what, rowDiff(sorted(got.rows), want))
		}
		fresh := &outRecorder{flushSink: flushSink{costs: sim.DefaultCosts()}, lastAt: -1}
		bare := newBareJoin(rigSpec.BuildKey, rigSpec.ProbeKey, rigSpec.BuildOut, rigSpec.ProbeOut)
		for _, b := range build {
			storage.HoldBatch(b)
			(*joinBuildSink)(bare).OnData(fresh, nil, &core.DataMsg{Batch: b})
		}
		bare.closeBuild()
		for i, b := range c.probe {
			storage.HoldBatch(b)
			(*joinProbeSink)(bare).OnData(fresh, core.NewAC(2), &core.DataMsg{Batch: b, Last: i == len(c.probe)-1})
		}
		if !slices.Equal(got.rows, fresh.rows) {
			t.Fatalf("%s: the join sent its rows in another order than a join probing from the start", c.what)
		}
	}
	r.finish()
}

// TestJoinOutputKeyedOnProbeSpec: two joins that share a build shape —
// build key and build batches — but project their probe side differently
// do not answer from each other's kept output; each answer is its own
// naive join, and each replays only after a join of its own spec.
func TestJoinOutputKeyedOnProbeSpec(t *testing.T) {
	r := newReplayRig(t)
	build, probe := rigData(r)
	other := rigSpec
	other.ProbeOut = []string{"pk", "pv"}
	for i, spec := range []JoinSpec{rigSpec, other, rigSpec, rigSpec, other, other} {
		before := r.w.work.replayedJoins
		got := r.run(spec, build, probe)
		if want := naiveJoin(spec, build, probe); !slices.Equal(sorted(got.rows), want) {
			t.Fatalf("join %d (probe columns %v) answered %s", i, spec.ProbeOut, rowDiff(sorted(got.rows), want))
		}
		if replayed, want := r.w.work.replayedJoins-before, i == 3 || i == 5; (replayed == 1) != want {
			t.Fatalf("join %d (probe columns %v) replayed %d outputs, want a replay %v", i, spec.ProbeOut, replayed, want)
		}
	}
	r.finish()
}

// TestJoinEmptyOutputReplays: a join whose probe rows match no build key
// keeps its empty output, and a join fed the same batches again replays
// it as one message, the end of stream, with no batch.
func TestJoinEmptyOutputReplays(t *testing.T) {
	r := newReplayRig(t)
	build, _ := rigData(r)
	probe := []*storage.Batch{r.batch(rigProbe, [2]int64{1000, 1}), r.batch(rigProbe, [2]int64{-5, 2})}
	if first := r.run(rigSpec, build, probe); len(first.rows) != 0 {
		t.Fatalf("the join answered %v, want nothing", first.rows)
	}
	again := r.run(rigSpec, build, probe)
	if r.w.work.replayedJoins != 1 || again.msgs != 1 || len(again.batches) != 0 {
		t.Fatalf("the join again replayed %d outputs in %d messages with %d batches, want 1, 1 and 0",
			r.w.work.replayedJoins, again.msgs, len(again.batches))
	}
	r.finish()
}

// TestKeptOutputOutlivesReplacement interleaves joins on one kept build.
// Two joins reuse the build and start holding the kept output's first
// probe batches back against it. A third join on the build then probes
// other batches and replaces the kept output; the "memo" gives up its
// holds on the first output's probe batches once it delivered them. The
// first join receives exactly those batches and must replay the replaced
// output, which its reference kept intact; the second receives a new
// batch after the held-back ones and probes, after a fourth join, fed the
// third one's probe batches, replayed the new output. Every answer must
// be the naive join's, and no pooled object may be left.
func TestKeptOutputOutlivesReplacement(t *testing.T) {
	r := newReplayRig(t)
	build, probe := rigData(r)
	other := []*storage.Batch{r.batch(rigProbe, [2]int64{3, 1}, [2]int64{77, 2}), r.batch(rigProbe, [2]int64{5, 3})}
	first := r.run(rigSpec, build, probe)
	a, b := r.start(rigSpec), r.start(rigSpec)
	r.send(a, a.spec.Build, true, build...)
	r.send(b, b.spec.Build, true, build...)
	r.send(a, a.spec.Probe, false, probe[0], probe[1])
	r.send(b, b.spec.Probe, false, probe[0], probe[1])
	replacing := r.run(rigSpec, build, other)
	if want := naiveJoin(rigSpec, build, other); !slices.Equal(sorted(replacing.rows), want) {
		t.Fatalf("the replacing join answered %s", rowDiff(sorted(replacing.rows), want))
	}
	r.send(a, a.spec.Probe, false, probe[2], probe[3])
	r.send(b, b.spec.Probe, false, other[1])
	wantA, wantB := naiveJoin(rigSpec, build, probe), naiveJoin(rigSpec, build, []*storage.Batch{probe[0], probe[1], other[1]})
	for _, p := range probe {
		r.drop(p)
	}
	before := r.w.work.replayedJoins
	r.send(a, a.spec.Probe, true)
	if got := sorted(a.ctx.rows); !slices.Equal(got, wantA) || !slices.Equal(a.ctx.batches, first.batches) {
		t.Fatalf("the join holding back answered %s, replaying the first output's batches %v",
			rowDiff(got, wantA), slices.Equal(a.ctx.batches, first.batches))
	}
	if d := r.w.work.replayedJoins - before; d != 1 {
		t.Fatalf("%d joins replayed, want the one holding back", d)
	}
	again := r.run(rigSpec, build, other)
	if d := r.w.work.replayedJoins - before; d != 2 || !slices.Equal(again.batches, replacing.batches) {
		t.Fatalf("the join fed the replacing join's probe batches: %d joins replayed, the same batches %v, want 2 and true",
			d, slices.Equal(again.batches, replacing.batches))
	}
	r.send(b, b.spec.Probe, true)
	if got := sorted(b.ctx.rows); !slices.Equal(got, wantB) {
		t.Fatalf("the join that stopped holding back answered %s", rowDiff(got, wantB))
	}
	if r.w.work.builds != 1 || r.w.work.reusedBuilds != 4 {
		t.Fatalf("%d builds and %d reused, want 1 and 4", r.w.work.builds, r.w.work.reusedBuilds)
	}
	r.finish()
}

// BenchmarkJoinOutputReplay is a join on the Worker's kept build fed the
// build and probe batches of the last join of its spec — three held
// build batches, then four held probe batches, as a shared scan's memo
// replays them: one op reuses the build, holds each probe batch back,
// and at the end of the probe stream gives them back and sends the kept
// output by reference. It must show zero steady-state allocations.
//
//	go test -bench JoinOutputReplay -benchmem ./internal/olap
func BenchmarkJoinOutputReplay(b *testing.B) {
	r := &replayRig{w: &Worker{}}
	build, probe := rigData(r)
	ac := core.NewAC(1) // the probe side's end drops the join's streams
	spec := rigSpec
	spec.Query, spec.Build, spec.Probe, spec.Out, spec.To, spec.Producers, spec.Notify = 1, 1, 2, 3, 1, 1, core.NoAC
	ctx := &flushSink{costs: sim.DefaultCosts()}
	msg := &core.DataMsg{Producers: 1}
	st := &joinState{}
	held := make([]*storage.Batch, 0, max(len(build), len(probe)))
	op := func() {
		*st = joinState{spec: &spec, w: r.w, back: holdBack{held: held[:0]}}
		for _, bb := range build {
			storage.HoldBatch(bb) // the delivery's hold, as a replay takes it
			msg.Batch, msg.Last = bb, false
			(*joinBuildSink)(st).OnData(ctx, nil, msg)
		}
		st.closeBuild()
		for i, pb := range probe {
			storage.HoldBatch(pb)
			msg.Batch, msg.Last = pb, i == len(probe)-1
			(*joinProbeSink)(st).OnData(ctx, ac, msg)
		}
	}
	op() // the first join builds, probes and keeps both
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if r.w.work.builds != 1 || r.w.work.replayedJoins != b.N {
		b.Fatalf("%d builds and %d replayed joins, want 1 and %d", r.w.work.builds, r.w.work.replayedJoins, b.N)
	}
	if ctx.batches == 0 {
		b.Fatal("the join sent nothing")
	}
	freeBatches(r.owned)
	r.w.Release()
}
