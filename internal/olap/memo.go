package olap

import (
	"slices"

	"anydb/internal/storage"
)

// The selection memo: the one place where the shared scan compiles,
// evaluates and shares filters. A Worker remembers, per (table, partition), which rows of
// each chunk a registration kept, so every later registration with the
// same filters and key filter skips both matchChunk and keyScan.keep for
// every chunk none of the columns they read changed in. That holds
// within a pass as across passes: a second registration due at the same
// cursor step hits the entry the first one just stored. A signature is
// the filter list plus the key filter, compared exactly on Cols, Lo,
// Span and every word of Bits — unless both key filters carry one
// generation of one join build box, which names one bitmap. Each
// chunk's entry holds the kept rows, the count that passed the filters
// before the key filter (the virtual time charges the probe over it, hit
// or miss), and the table's encode stamp when it was stored. A hit needs
// the chunk's stamp over the signature's columns and slot list
// (storage.Table.ChunkStamp, read just after the fetch) to be at most
// the stored stamp. Every write to one of those columns, and every
// insert or delete in the chunk, re-encodes under a later stamp, so a
// hit returns exactly what evaluating would. A write to any other column
// leaves the entry valid: a payment's c_balance does not cost the
// customer filters their hits.
//
// Every registration has a signature (an empty filter list when it has
// no filter, whose selection stays the identity). What a pass of a
// signature and a projection (a streaming registration's Cols), or of a
// signature and a grouping and aggregate list (a pushdown's), emitted is
// a kept record in the Worker's store (keep.go): the batches the pass
// sent, held as it sent them, so keeping copies nothing, and as its
// inputs the chunk versions it read — per chunk, the chunk's stamp over
// every column the registration reads, read right after the chunk was
// scanned. A later registration of that shape whose table has as many
// chunks, none stamped later, is answered with those same batches
// (replay, which holds each again for its consumer) and never rides the
// cursor: a stamp that has not moved means the chunk still holds what
// was scanned, and a held batch is immutable, so the consumer reads
// exactly what a pass would have sent. A partial's rows are in group
// order (ascending group values, compareKeys), as the pass emitted them:
// the sink merges a replay like a fold, with no sort on either side. Any
// newer chunk sends the registration round the cursor, and its finish
// keeps the new record in place of the old. The whole partition is one
// output: merging per-chunk partials of c_state costs a third of folding
// the chunk. The record also carries the shape's layout, derived once,
// for every registration of the shape to share.
//
// Joins and sinks build on that identity: a build, a join's output or a
// sink's result made from held batches is a kept record too, and a
// consumer of its shape that receives the same batches again — the same
// pointers, which only a replay delivers — takes what the record keeps.
//
// The memo keeps memoSigs signatures per (table, partition), the least
// recently registered one dropped, with its records, when a new one
// arrives. The store bounds the records of every kind together, and a
// pass stops recording past maxKept batches; a pushdown's one partial
// batch is always kept.

// memoSigs bounds the signatures a Worker keeps per (table, partition).
const memoSigs = 8

// memoSig is one memoized signature: the filters and the key filter,
// compiled against the table once (the key filter over a private copy:
// the join recycles the bitmap it hands out), the columns they read,
// and one entry per chunk. The compiled filters' dictionary bitsets
// live as long as the signature. dropped marks a signature the memo let
// go: the store keeps no record of it (Worker.forget).
type memoSig struct {
	preds   []compiledPred
	keys    *keyScan // nil without a key filter
	reads   storage.ColSet
	chunks  []memoEntry
	dropped bool
}

// memoEntry is one chunk's memoized selection. Stamp 0 marks none: a
// chunk's stamp is at least 1.
type memoEntry struct {
	stamp uint64
	pre   int
	rows  []int32
}

// signature returns the signature of filters and keys in the memo of key,
// the most recently used first, adding it (and dropping the least
// recently used past memoSigs, with its records) when it is new.
func (w *Worker) signature(key sharedKey, schema *storage.Schema, filters []Predicate, keys *KeyFilter) *memoSig {
	sigs := w.memos[key]
	for i, s := range sigs {
		if s.is(filters, keys) {
			toFront(sigs, i)
			return s
		}
	}
	s := &memoSig{preds: make([]compiledPred, len(filters))}
	for i, f := range filters {
		s.preds[i] = compilePred(schema, f)
		s.reads |= 1 << s.preds[i].col
	}
	if keys != nil {
		s.keys = newKeyScan(schema, &KeyFilter{Cols: slices.Clone(keys.Cols), Lo: slices.Clone(keys.Lo),
			Span: slices.Clone(keys.Span), Bits: slices.Clone(keys.Bits), gen: keys.gen})
		for _, p := range s.keys.ranges {
			s.reads |= 1 << p.col
		}
	}
	if w.memos == nil {
		w.memos = make(map[sharedKey][]*memoSig)
	}
	var old *memoSig
	if w.memos[key], old = pushFront(sigs, s, memoSigs); old != nil {
		w.forget(old)
	}
	return s
}

// is reports whether the signature is filters and keys. Key filters of
// one non-zero generation have one bitmap, so their bitmaps are not
// compared; after a match word by word, the signature takes the
// caller's generation, so the next filter of that build box matches at
// once.
func (s *memoSig) is(filters []Predicate, keys *KeyFilter) bool {
	same := func(p compiledPred, f Predicate) bool { return p.Predicate == f }
	if !slices.EqualFunc(s.preds, filters, same) || (s.keys == nil) != (keys == nil) {
		return false
	}
	if keys == nil {
		return true
	}
	f := s.keys.f
	if !slices.Equal(f.Cols, keys.Cols) || !slices.Equal(f.Lo, keys.Lo) || !slices.Equal(f.Span, keys.Span) {
		return false
	}
	if keys.gen != 0 && f.gen == keys.gen {
		return true
	}
	if !slices.Equal(f.Bits, keys.Bits) {
		return false
	}
	f.gen = keys.gen
	return true
}

// fresh reports whether scan output k answers a pass over t's n chunks
// that reads cols: it read n chunks, and none is stamped later than when
// it was scanned. Each chunk is fetched first, which makes its stamp
// current; the check stops at the first newer chunk.
func (k *kept) fresh(t *storage.Table, n int, cols storage.ColSet) bool {
	if len(k.stamps) != n {
		return false
	}
	for ci, stamp := range k.stamps {
		t.ColChunkCols(ci, cols)
		if t.ChunkStamp(ci, cols) > stamp {
			return false
		}
	}
	return true
}
