package olap

import (
	"slices"

	"anydb/internal/storage"
)

// The kept record: what an operator made, kept by its Worker for the
// next operator of its shape made from the same inputs. Four kinds
// share it: a shared scan's output, a join's build, the output of a join
// on a kept build, and a sink's result. A record holds its output
// batches, each held, and its inputs: a scan output the chunk versions
// it read — per chunk, the stamp over the registration's reads — and
// the others their held input batches in arrival order.
//
// The shape and the inputs determine what the operator made. A scan is
// answered before it reads anything, so a registration of the shape
// takes the record while no chunk it read is stamped later (fresh,
// memo.go). A stream consumer matches its batches as they arrive: a held
// batch is never recycled, so a consumer of the shape whose stream
// delivers the record's input batches, in any order, takes the record's
// state or sends its output batches instead of computing them. Only a
// replay hands a batch out twice (storage.Batch.Shared), so a consumer
// records while every batch it consumes is shared, and stops at the
// first one that is not.
//
// One store per Worker keeps the records of every kind, most recently
// used first, at most keptRecords of them: a new record replaces the one
// of its shape or, past the bound, the least recently used. A build
// carries one output, the last stored by a join on it under any probe
// spec. A recording stops past maxKept input or output batches. A scan
// output's shape names its memo signature, and the store keeps no record
// of a signature the memo dropped.
//
// A stream consumer that finds a record of its shape holds back the
// delivered batches that are its inputs (holdBack) and references it
// until it closes, so a record replaced meanwhile stays whole for it.
// The last reference frees the record's holds, its output and its
// table, and puts the record on its Worker's free list, whose slices the
// next recording fills.

// keptRecords bounds the records a Worker keeps, of every kind, each
// build with its one output, and the records its free list holds.
const keptRecords = 16

// maxKept bounds the input and the output batches of a record: a
// recording stops past it, and a hold-back marks the inputs it has seen
// in one word.
const maxKept = 64

// A sink's result, at most CollectCap rows in batches of
// DefaultBatchRows, never reaches maxKept, so a sink keeps every result
// it makes from kept inputs (this fails to compile once it could).
const _ uint = maxKept*DefaultBatchRows - CollectCap

// kept is one record: its shape, its inputs and its output batches in
// emission order, each batch held, and one reference count — its
// keeper's (the store, the build an output hangs on, or the recording)
// plus each consumer's running on it or holding back against it.
type kept struct {
	shape   keptShape
	in, out []*storage.Batch
	refs    int
	w       *Worker // whose free list takes the record at its last reference

	// A scan output's chunk versions, in chunk order, its layout (which
	// holds its shape's projection or grouping and aggregates), and the
	// rows it charged: ScanRow over scanned, HashProbeRow over probed,
	// and AggRow (pushdown) or PartitionRow (streaming) over rows.
	stamps          []uint64
	layout          *scanLayout
	scanned, probed int

	// A sink result's row count and truncation flag, a build's rows, or
	// the rows a scan output kept.
	rows      int
	truncated bool

	// A sink result's spec, which its shape names, and its schema.
	spec   SinkSpec
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

// keptShape is what makes a record answer an operator besides its
// inputs: a scan output's memo signature and its projection, or its
// grouping and aggregates; a sink's spec (Query, In and Notify aside); a
// build's key and the columns of its batches; or, for a join output on a
// build, the probe key and the columns each side carries. A record's
// shape points into what it owns: a scan output's layout, a sink
// result's spec.
type keptShape struct {
	sig                *memoSig
	scan               *scanShape
	sink               *SinkSpec
	key                []string
	cols               *storage.Schema
	buildOut, probeOut []string
}

// is reports whether a and b are one shape. Only a scan output has a
// signature, and only a sink result a spec, so these tell the kinds
// apart; the signature, compared first, sets an owner's scan outputs of
// other signatures apart at once.
func (a *keptShape) is(b *keptShape) bool {
	if a.sig != nil || b.sig != nil {
		return a.sig == b.sig && a.scan.is(b.scan)
	}
	if a.sink != nil || b.sink != nil {
		return a.sink != nil && b.sink != nil && sameShape(a.sink, b.sink)
	}
	return slices.Equal(a.key, b.key) && sameCols(a.cols, b.cols) &&
		slices.Equal(a.buildOut, b.buildOut) && slices.Equal(a.probeOut, b.probeOut)
}

// sameCols reports whether schemas a and b, either nil, name the same
// columns.
func sameCols(a, b *storage.Schema) bool {
	return a == b || a != nil && b != nil && a.Name == b.Name && slices.Equal(a.Cols, b.Cols)
}

// unref gives back one reference to k; the last frees its holds on its
// batches, its reference to its output and its table, and empties k onto
// its Worker's free list while that is short of keptRecords.
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
	clear(k.in)
	clear(k.out)
	w := k.w
	*k = kept{in: k.in[:0], out: k.out[:0], stamps: k.stamps[:0]}
	if len(w.free) < keptRecords {
		w.free = append(w.free, k)
	}
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
// gives back the store's reference to the record it let go. A scan
// output of a signature the memo dropped is let go at once.
func (w *Worker) keep(k *kept) {
	if k.shape.sig != nil && k.shape.sig.dropped {
		k.unref()
		return
	}
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

// forget marks signature s dropped and lets go of the store's records of
// its scan outputs.
func (w *Worker) forget(s *memoSig) {
	s.dropped = true
	w.kept = slices.DeleteFunc(w.kept, func(k *kept) bool {
		if k.shape.sig != s {
			return false
		}
		k.unref()
		return true
	})
}

// toFront moves list[i] to the front of list, keeping the order of the
// rest.
func toFront[T any](list []T, i int) {
	v := list[i]
	copy(list[1:i+1], list[:i])
	list[0] = v
}

// pushFront returns list with v in front, and the element it dropped
// past bound (the zero value when none).
func pushFront[T any](list []T, v T, bound int) ([]T, T) {
	var old T
	if len(list) < bound {
		list = append(list, v)
	} else {
		old = list[len(list)-1]
	}
	copy(list[1:], list)
	list[0] = v
	return list, old
}

// recorder records what a consumer may keep, from start to take or stop,
// into a record drawn from its Worker's free list at the first thing it
// records: the inputs — the batches a stream consumer consumes, in
// arrival order, or the chunk versions a scan read — and the output
// batches in emission order, each batch held once more.
type recorder struct {
	w *Worker // nil while off
	k *kept
}

// start starts recording for w; a nil w records nothing.
func (r *recorder) start(w *Worker) { r.w = w }

// record returns the record being made, with the recording's reference,
// drawing it at the first call.
func (r *recorder) record() *kept {
	if r.k == nil {
		if n := len(r.w.free); n > 0 {
			r.k, r.w.free = r.w.free[n-1], r.w.free[:n-1]
		} else {
			r.k = &kept{}
		}
		r.k.w, r.k.refs = r.w, 1
	}
	return r.k
}

// input records input batch b. A batch that is not Shared cannot come
// again, so it stops the recording.
func (r *recorder) input(b *storage.Batch) {
	if r.w != nil {
		r.add(&r.record().in, b, b.Shared())
	}
}

// output records output batch b.
func (r *recorder) output(b *storage.Batch) {
	if r.w != nil {
		r.add(&r.record().out, b, true)
	}
}

// version records stamp as the version of chunk ci of a pass over n
// chunks.
func (r *recorder) version(n, ci int, stamp uint64) {
	if r.w == nil {
		return
	}
	k := r.record()
	if len(k.stamps) != n {
		k.stamps = slices.Grow(k.stamps[:0], n)[:n]
	}
	k.stamps[ci] = stamp
}

// add appends b to list, held, unless b cannot come again or list holds
// maxKept batches: either stops the recording.
func (r *recorder) add(list *[]*storage.Batch, b *storage.Batch, again bool) {
	if !again || len(*list) == maxKept {
		r.stop()
		return
	}
	storage.HoldBatch(b)
	*list = append(*list, b)
}

// stop ends the recording and gives back its record with its holds.
func (r *recorder) stop() {
	if r.k != nil {
		r.k.unref()
	}
	r.w, r.k = nil, nil
}

// take ends the recording and returns its record, with one reference,
// for the caller to give its shape and state; nil, the record given
// back, when it stopped or recorded no input.
func (r *recorder) take() *kept {
	k := r.k
	if k == nil || len(k.in)+len(k.stamps) == 0 {
		r.stop()
		return nil
	}
	r.w, r.k = nil, nil
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
