package olap

import (
	"fmt"
	"slices"
	"testing"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// TestKeepStoreBound fills one Worker's store past keptRecords with scan
// outputs, join builds and sink results mixed. Each new record past the
// bound evicts the least recently used one, of any kind — a replay makes
// a record the most recently used — and the evicted record gives back
// its holds on its inputs and its output at once and is emptied onto the
// Worker's free list; the store never holds more than keptRecords. An
// evicted shape computes afresh, a kept one still replays. A scan output
// leaves the store when the memo drops its signature, and a registration
// whose signature was dropped during its pass keeps no record. Release
// leaves no pooled object.
func TestKeepStoreBound(t *testing.T) {
	r := newReplayRig(t)
	r.w.DB = customerDB()
	sinks := &sinkRig{t: t, w: r.w, ac: core.NewAC(2)}
	scans := &flushSink{costs: sim.DefaultCosts()}
	var names []string
	for _, c := range r.w.DB.Partition(0).TableByID(tpcc.TCustomerID).Schema.Cols {
		names = append(names, c.Name)
	}
	probe := []*storage.Batch{r.batch(rigProbe, [2]int64{1, 1}, [2]int64{2, 2})}
	const build, sink, scan = 0, 1, 2
	type entry struct {
		kind int
		spec any
		in   *storage.Batch // a build's or a sink's input
	}
	// record returns an entry of kind over a shape of its own: a build
	// over a schema of its own or a sink result of its own LIMIT, each
	// over its own input batch, or a scan output of its own projection.
	scanned := 0
	record := func(kind, i int) entry {
		switch kind {
		case build:
			s := storage.NewSchema(fmt.Sprintf("b%d", i), rigBuild.Cols...)
			return entry{build, rigSpec, r.batch(s, [2]int64{1, int64(i)}, [2]int64{2, int64(i)})}
		case sink:
			spec := rigCollect
			spec.Limit = 100 + i
			return entry{sink, spec, r.batch(rigIn, [2]int64{int64(i), 1})}
		}
		scanned++
		return entry{kind: scan, spec: &SharedScanSpec{Query: 1, Table: tpcc.TCustomerID, Part: 0,
			Cols: names[:scanned], Out: 7, To: 1, Producers: 1}}
	}
	// attach registers a scan of spec, driving it to the end when drive is
	// set.
	attach := func(spec *SharedScanSpec, drive bool) {
		reg := *spec
		ev := core.GetEvent()
		ev.Kind, ev.Payload = core.EvInstallOp, &reg
		r.w.OnEvent(scans, nil, ev)
		for ev = scans.resent; drive && ev != nil; ev = scans.resent {
			scans.resent = nil
			r.w.OnEvent(scans, nil, ev)
		}
	}
	run := func(e entry) {
		switch e.kind {
		case build:
			r.run(e.spec.(JoinSpec), []*storage.Batch{e.in}, probe)
		case sink:
			sinks.run(e.spec.(SinkSpec), e.in)
		default:
			attach(e.spec.(*SharedScanSpec), true)
		}
	}
	// again runs e and reports whether its record answered it, and
	// whether it computed afresh: a build's join builds its table and
	// replays nothing, a sink replays nothing, a scan gathers rows.
	again := func(e entry) (replayed, computed bool) {
		before := r.w.work
		run(e)
		after := r.w.work
		builds, reused := after.builds-before.builds, after.reusedBuilds-before.reusedBuilds
		joins, sinks := after.replayedJoins-before.replayedJoins, after.replayedSinks-before.replayedSinks
		switch e.kind {
		case build:
			return builds == 0 && reused == 1 && joins == 1, builds == 1 && reused == 0 && joins == 0
		case sink:
			return sinks == 1, sinks == 0
		default:
			return after.gathered == before.gathered, after.gathered > before.gathered
		}
	}
	// Records are told by their shapes, each copied with what it points
	// into: an emptied record is drawn again by the next recording.
	var entries []entry
	var recs []*kept
	var shapes []keptShape
	add := func(e entry) {
		entries = append(entries, e)
		run(e)
		sh := r.w.kept[0].shape
		if sh.sink != nil {
			spec := *sh.sink
			sh.sink = &spec
		}
		recs, shapes = append(recs, r.w.kept[0]), append(shapes, sh)
	}
	for i := range keptRecords {
		add(record(i%3, i))
	}
	// A replay of record 0, a build, makes it the most recently used, so
	// records 1 (a sink result), 2 (a scan output) and 3 (a build) are the
	// least recently used.
	if replayed, _ := again(entries[0]); !replayed {
		t.Fatal("record 0 again: want its build reused and its join replayed once, and no build")
	}
	for n, kind := range []int{scan, sink, scan} {
		evicted := 1 + n
		add(record(kind, keptRecords+n))
		if len(r.w.kept) != keptRecords {
			t.Fatalf("the store holds %d records, want %d", len(r.w.kept), keptRecords)
		}
		for i := range shapes {
			if kept := r.w.index(&shapes[i]) >= 0; kept == (i <= evicted && i > 0) {
				t.Fatalf("record %d of %d kept %v after record %d evicted", i, len(recs), kept, evicted)
			}
		}
		k, in := recs[evicted], entries[evicted].in
		if k.refs != 0 || len(k.in)+len(k.out)+len(k.stamps) != 0 || k.output != nil || !slices.Contains(r.w.free, k) ||
			in != nil && in.Shared() {
			t.Fatalf("evicted record %d: %d references, holds on %d inputs and %d outputs, %d chunk versions, output kept %v, on the free list %v, input still shared %v",
				evicted, k.refs, len(k.in), len(k.out), len(k.stamps), k.output != nil, slices.Contains(r.w.free, k), in != nil && in.Shared())
		}
	}
	// Every record kept past the bound still answers; the evicted ones
	// compute afresh.
	for i, e := range entries[4:] {
		if replayed, _ := again(e); !replayed {
			t.Fatalf("kept record %d again did not replay", i+4)
		}
	}
	for i, e := range entries[1:4] {
		if _, computed := again(e); !computed {
			t.Fatalf("evicted record %d again did not compute afresh", i+1)
		}
	}

	// A filtered scan keeps a record under its signature. A registration
	// of that signature and a new projection attaches, then memoSigs new
	// signatures drop it: its record leaves the store, and the pass
	// keeps no record while those of the new signatures are kept.
	filtered := func(hi int64, cols ...string) *SharedScanSpec {
		return &SharedScanSpec{Query: 1, Table: tpcc.TCustomerID, Part: 0,
			Filters: []Predicate{{Col: "c_id", Kind: PredIn, Lo: 1, Hi: hi}}, Cols: cols, Out: 7, To: 1, Producers: 1}
	}
	attach(filtered(1, "c_id"), true)
	k, sh := r.w.kept[0], r.w.kept[0].shape
	attach(filtered(1, "c_id", "c_last"), false)
	for i := range memoSigs {
		attach(filtered(int64(2+i), "c_id"), false)
	}
	if !sh.sig.dropped || r.w.index(&sh) >= 0 || k.refs != 0 || !slices.Contains(r.w.free, k) {
		t.Fatalf("signature dropped %v: its record kept %v, %d references, on the free list %v",
			sh.sig.dropped, r.w.index(&sh) >= 0, k.refs, slices.Contains(r.w.free, k))
	}
	for ev := scans.resent; ev != nil; ev = scans.resent {
		scans.resent = nil
		r.w.OnEvent(scans, nil, ev)
	}
	fresh := 0
	for _, k := range r.w.kept {
		if s := k.shape.sig; s != nil && s.dropped {
			t.Fatalf("the store keeps a record of a dropped signature (%d predicates)", len(s.preds))
		} else if s != nil && len(s.preds) == 1 {
			fresh++
		}
	}
	if fresh != memoSigs {
		t.Fatalf("%d records of the new signatures kept, want %d", fresh, memoSigs)
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
