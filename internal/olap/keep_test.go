package olap

import (
	"fmt"
	"slices"
	"testing"

	"anydb/internal/core"
	"anydb/internal/storage"
)

// TestKeepStoreBound fills one Worker's store past keptRecords with join
// builds and sink results mixed. Each new record past the bound evicts
// the least recently used one, of either kind — a replay makes a record
// the most recently used — and the evicted record gives back its holds
// on its inputs and its output at once; the store never holds more than
// keptRecords. An evicted shape computes afresh, a kept one still
// replays, and Release leaves no pooled object.
func TestKeepStoreBound(t *testing.T) {
	r := newReplayRig(t)
	sinks := &sinkRig{t: t, w: r.w, ac: core.NewAC(2)}
	probe := []*storage.Batch{r.batch(rigProbe, [2]int64{1, 1}, [2]int64{2, 2})}
	type entry struct {
		build bool
		spec  any
		in    *storage.Batch
	}
	// record i is a build over a schema of its own, or a sink result of
	// its own LIMIT, over its own input batch.
	record := func(i int) entry {
		if i%2 == 0 {
			s := storage.NewSchema(fmt.Sprintf("b%d", i), rigBuild.Cols...)
			return entry{true, rigSpec, r.batch(s, [2]int64{1, int64(i)}, [2]int64{2, int64(i)})}
		}
		spec := rigCollect
		spec.Limit = 100 + i
		return entry{false, spec, r.batch(rigIn, [2]int64{int64(i), 1})}
	}
	run := func(e entry) {
		if e.build {
			r.run(e.spec.(JoinSpec), []*storage.Batch{e.in}, probe)
		} else {
			sinks.run(e.spec.(SinkSpec), e.in)
		}
	}
	var entries []entry
	var recs []*kept
	for i := range keptRecords {
		entries = append(entries, record(i))
		run(entries[i])
		recs = append(recs, r.w.kept[0])
	}
	// A replay of record 0 makes it the most recently used, so records 1
	// (a result) and then 2 (a build) are the least recently used.
	before := r.w.work
	run(entries[0])
	if r.w.work.reusedBuilds != before.reusedBuilds+1 || r.w.work.replayedJoins != before.replayedJoins+1 {
		t.Fatalf("record 0 again: %d builds reused and %d joins replayed, want 1 and 1",
			r.w.work.reusedBuilds-before.reusedBuilds, r.w.work.replayedJoins-before.replayedJoins)
	}
	for n, evicted := range []int{1, 2} {
		e := record(keptRecords + n)
		run(e)
		if len(r.w.kept) != keptRecords {
			t.Fatalf("the store holds %d records, want %d", len(r.w.kept), keptRecords)
		}
		k := recs[evicted]
		for i, kk := range recs {
			if kept := slices.Contains(r.w.kept, kk); kept == (i <= evicted && i > 0) {
				t.Fatalf("record %d of %d kept %v after record %d evicted", i, len(recs), kept, evicted)
			}
		}
		if k.refs != 0 || k.in != nil || k.out != nil || k.output != nil || entries[evicted].in.Shared() {
			t.Fatalf("evicted record %d: %d references, holds on %d inputs and %d outputs, output kept %v, input still shared %v",
				evicted, k.refs, len(k.in), len(k.out), k.output != nil, entries[evicted].in.Shared())
		}
		recs = append(recs, r.w.kept[0])
	}
	// Every record kept past the bound still answers; the evicted ones
	// compute afresh.
	for i, e := range entries[3:] {
		before := r.w.work
		run(e)
		if d := r.w.work.replayedJoins + r.w.work.replayedSinks - before.replayedJoins - before.replayedSinks; d != 1 {
			t.Fatalf("kept record %d again: %d replays, want 1", i+3, d)
		}
	}
	before = r.w.work
	run(entries[1])
	run(entries[2])
	if r.w.work.replayedSinks != before.replayedSinks || r.w.work.builds != before.builds+1 {
		t.Fatalf("the evicted records again: %d sinks replayed, %d builds, want 0 and 1",
			r.w.work.replayedSinks-before.replayedSinks, r.w.work.builds-before.builds)
	}
	r.finish()
}

// TestUnsharedInputsAreNotKept: a batch held by its consumer alone (not
// Shared) cannot come again, so a sink, a join build or a join output
// that consumed one keeps no record, and gives back the holds it took
// while recording.
func TestUnsharedInputsAreNotKept(t *testing.T) {
	r := newReplayRig(t)
	sinks := &sinkRig{t: t, w: r.w, ac: core.NewAC(2)}
	build, probe := rigData(r)
	// unshared hands the consumer a batch of schema s whose only hold is
	// the delivery's.
	unshared := func(ac *core.AC, ctx core.Context, sid core.StreamID, q core.QueryID, s *storage.Schema) {
		b := storage.GetBatch(s)
		b.AppendValues(storage.Int(3), storage.Int(4))
		msg := core.GetDataMsg()
		msg.Stream, msg.Query, msg.Batch, msg.Producers = sid, q, b, 1
		ac.HandleData(ctx, msg)
	}

	run := sinks.start(rigGrouped)
	sinks.send(run, r.batch(rigIn, [2]int64{1, 2}))
	unshared(sinks.ac, run.ctx, run.spec.In, run.spec.Query, rigIn)
	sinks.close(run)
	if len(r.w.kept) != 0 {
		t.Fatalf("a sink over an unshared batch kept %d records", len(r.w.kept))
	}

	j := r.start(rigSpec)
	r.send(j, j.spec.Build, false, build...)
	unshared(r.ac, j.ctx, j.spec.Build, j.spec.Query, rigBuild)
	r.send(j, j.spec.Build, true)
	r.send(j, j.spec.Probe, true, probe...)
	if len(r.w.kept) != 0 {
		t.Fatalf("a join over an unshared build batch kept %d records", len(r.w.kept))
	}

	r.run(rigSpec, build, probe)
	kept := r.w.kept[0].output
	j = r.start(rigSpec)
	r.send(j, j.spec.Build, true, build...)
	r.send(j, j.spec.Probe, false, probe[0])
	unshared(r.ac, j.ctx, j.spec.Probe, j.spec.Query, rigProbe)
	r.send(j, j.spec.Probe, true)
	if len(r.w.kept) != 1 || r.w.kept[0].output != kept {
		t.Fatalf("a join over an unshared probe batch replaced the kept output")
	}
	r.finish()
}
