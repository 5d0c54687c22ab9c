package olap

import (
	"slices"

	"anydb/internal/storage"
)

// The kept record: what a stream consumer made from held input batches —
// a join's build, the output of a join on a kept build, a sink's result —
// kept by its Worker for the next consumer of its shape. The shape and
// the input batches determine what the consumer made, and a held batch is
// never recycled, so a consumer of the shape whose stream delivers the
// same batches, in any order, may take the record's state or send its
// output batches instead of computing them. Only a memo's replay, or a
// record's, hands a batch out twice (storage.Batch.Shared), so a consumer
// records while every batch it consumes is shared, and stops at the first
// one that is not.
//
// One store per Worker keeps builds and sink results, most recently used
// first, at most keptRecords of them: a new record replaces the one of
// its shape or, past the bound, the least recently used. A build carries
// one output, the last stored by a join on it under any probe spec.
//
// A consumer that finds a record of its shape holds back the delivered
// batches that are its inputs (holdBack) and references it until it
// closes, so a record replaced meanwhile stays whole for it. The last
// reference frees the record's holds, its output and its table.

// keptRecords bounds the records a Worker keeps: builds and sink results
// together, each build with its one output.
const keptRecords = 16

// maxKept bounds the input and the output batches of a record: a
// consumer stops recording past it, and a hold-back marks the inputs it
// has seen in one word.
const maxKept = 64

// A sink's result, at most CollectCap rows in batches of
// DefaultBatchRows, never reaches maxKept, so a sink keeps every result
// it makes from kept inputs (this fails to compile once it could).
const _ uint = maxKept*DefaultBatchRows - CollectCap

// kept is one record: its shape, its input batches in arrival order and
// its output batches in emission order, each held, and one reference
// count — its keeper's (the store, or the build an output hangs on) plus
// each consumer's running on it or holding back against it.
type kept struct {
	shape   keptShape
	in, out []*storage.Batch
	refs    int

	// A sink result's row count and truncation flag, or a build's rows.
	rows      int
	truncated bool

	// A sink result's schema.
	schema *storage.Schema

	// A build's key columns, key box, bitmap, direct flag and table, and
	// the output the last join on it kept (nil when none). Joins running
	// on it only read them.
	cols   []int
	box    keyBox
	hi     joinKey
	direct bool
	ht     *joinTable
	output *kept
}

// keptShape is what makes a record answer a consumer besides its input
// batches: a sink's spec (Query, In and Notify aside); a build's key and
// the columns of its batches; or, for a join output on a build, the probe
// key and the columns each side carries.
type keptShape struct {
	sink               SinkSpec
	key                []string
	cols               *storage.Schema
	buildOut, probeOut []string
}

// is reports whether a and b are one shape. A sink result has no key and
// no columns, so these tell it from a build before the sink specs are
// compared.
func (a *keptShape) is(b *keptShape) bool {
	return slices.Equal(a.key, b.key) && sameCols(a.cols, b.cols) && sameShape(&a.sink, &b.sink) &&
		slices.Equal(a.buildOut, b.buildOut) && slices.Equal(a.probeOut, b.probeOut)
}

// sameCols reports whether schemas a and b, either nil, name the same
// columns.
func sameCols(a, b *storage.Schema) bool {
	return a == b || a != nil && b != nil && a.Name == b.Name && slices.Equal(a.Cols, b.Cols)
}

// unref gives back one reference to k; the last frees its holds on its
// batches, its reference to its output and its table.
func (k *kept) unref() {
	if k.refs--; k.refs > 0 {
		return
	}
	freeBatches(k.in)
	freeBatches(k.out)
	if k.output != nil {
		k.output.unref()
	}
	if k.ht != nil {
		k.ht.release()
	}
	k.in, k.out, k.output, k.ht = nil, nil, nil, nil
}

// freeBatches gives back one hold on each of batches.
func freeBatches(batches []*storage.Batch) {
	for _, b := range batches {
		storage.FreeBatch(b)
	}
}

// find returns the Worker's record of shape sh, now the most recently
// used, or nil (always nil on a nil Worker, which keeps none).
func (w *Worker) find(sh *keptShape) *kept {
	if w == nil {
		return nil
	}
	i := w.index(sh)
	if i < 0 {
		return nil
	}
	toFront(w.kept, i)
	return w.kept[0]
}

// index returns the index in the store of the record of shape sh, or -1.
func (w *Worker) index(sh *keptShape) int {
	for i, k := range w.kept {
		if k.shape.is(sh) {
			return i
		}
	}
	return -1
}

// keep stores k as the most recently used record, in place of the record
// of its shape or, past keptRecords, of the least recently used, and
// gives back the store's reference to the record it let go.
func (w *Worker) keep(k *kept) {
	var old *kept
	if i := w.index(&k.shape); i >= 0 {
		old, w.kept[i] = w.kept[i], k
		toFront(w.kept, i)
	} else {
		w.kept, old = pushFront(w.kept, k, keptRecords)
	}
	if old != nil {
		old.unref()
	}
}

// recorder records what a consumer may keep, while on: its input batches
// in arrival order and its output batches in emission order, each held
// once more.
type recorder struct {
	on      bool
	in, out []*storage.Batch
}

// input records input batch b. A batch that is not Shared cannot come
// again, so it stops the recording.
func (r *recorder) input(b *storage.Batch) { r.add(&r.in, b, b.Shared()) }

// output records output batch b.
func (r *recorder) output(b *storage.Batch) { r.add(&r.out, b, true) }

// add appends b to list, held, unless b cannot come again or list holds
// maxKept batches: either stops the recording.
func (r *recorder) add(list *[]*storage.Batch, b *storage.Batch, again bool) {
	if r.on && (!again || len(*list) == maxKept) {
		r.stop()
	}
	if r.on {
		storage.HoldBatch(b)
		*list = append(*list, b)
	}
}

// stop ends the recording and gives back its holds.
func (r *recorder) stop() {
	freeBatches(r.in)
	freeBatches(r.out)
	r.in, r.out, r.on = nil, nil, false
}

// take ends the recording and returns a record of what it recorded, with
// one reference, for the caller to give its shape and state; nil, the
// holds given back, when it stopped or recorded no input.
func (r *recorder) take() *kept {
	if !r.on || len(r.in) == 0 {
		r.stop()
		return nil
	}
	k := &kept{in: r.in, out: r.out, refs: 1}
	r.in, r.out, r.on = nil, nil, false
	return k
}

// holdBack is a stream consumer's hold-back against a record of its
// shape, which it references from open to close. While on, each
// delivered batch that is one of the record's inputs, not yet delivered,
// is held — charged, not yet consumed. Any other batch turns it off, and
// the consumer then consumes the held batches (drain), in arrival order,
// before that one. A stream that delivered every input of the record,
// all held back (hit), is answered with what the record keeps.
type holdBack struct {
	k    *kept
	on   bool
	seen uint64 // the record's inputs held, by index
	held []*storage.Batch
}

// open starts holding back against k, and references it; a nil k leaves
// the hold-back off.
func (h *holdBack) open(k *kept) {
	if k != nil {
		k.refs++
		h.k, h.on, h.seen = k, true, 0
	}
}

// hold reports whether b is held back. Otherwise it turns the hold-back
// off.
func (h *holdBack) hold(b *storage.Batch) bool {
	if !h.on {
		return false
	}
	if i := slices.Index(h.k.in, b); i >= 0 && h.seen&(1<<i) == 0 {
		h.seen |= 1 << i
		h.held = append(h.held, b)
		return true
	}
	h.on = false
	return false
}

// hit reports whether the stream delivered exactly the record's inputs,
// in any order: every batch was held back, each a distinct input, so the
// count decides.
func (h *holdBack) hit() bool {
	return h.on && len(h.held) == len(h.k.in)
}

// drain turns the hold-back off and returns the held batches, in arrival
// order, for the consumer to consume.
func (h *holdBack) drain() []*storage.Batch {
	h.on = false
	held := h.held
	h.held = h.held[:0]
	return held
}

// replay answers a hit: it gives back the holds on the held batches —
// the record's own inputs — and returns the record's output batches,
// each held once more for the consumer.
func (h *holdBack) replay() []*storage.Batch {
	freeBatches(h.drain())
	for _, b := range h.k.out {
		storage.HoldBatch(b)
	}
	return h.k.out
}

// close turns the hold-back off and gives back its reference.
func (h *holdBack) close() {
	if h.k != nil {
		h.k.unref()
	}
	h.k, h.on = nil, false
}
