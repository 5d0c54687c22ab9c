package olap

import (
	"slices"

	"anydb/internal/storage"
)

// The selection memo: the one place where the shared scan compiles,
// evaluates and shares filters, and where it keeps the partials of its
// aggregate pushdowns. A Worker remembers, per (table, partition),
// which rows of each chunk a registration kept, so every later
// registration with the same filters and key filter skips both
// matchChunk and keyScan.keep for every chunk none of the columns they
// read changed in. That holds within a pass as across passes: a second
// registration due at the same cursor step hits the entry the first one
// just stored. A signature is the filter list plus the key filter,
// compared exactly on Cols, Lo, Span and every word of Bits. Each
// chunk's entry holds the kept rows, the count that passed the filters
// before the key filter (the virtual time charges the probe over it,
// hit or miss), and the table's encode stamp when it was stored. A hit
// needs the chunk's stamp over the signature's columns and slot list
// (storage.Table.ChunkStamp, read just after the fetch) to be at most
// the stored stamp. Every write to one of those columns, and every
// insert or delete in the chunk, re-encodes under a later stamp, so a
// hit returns exactly what evaluating would. A write to any other
// column leaves the entry valid: a payment's c_balance does not cost
// the customer filters their hits.
//
// The partial memo rides the same signatures. An aggregate pushdown
// always has one (an empty filter list when it has no filter, whose
// selection stays the identity), and under it a partial per grouping
// and aggregate list, compared exactly: the partial batch the last full
// pass emitted and, per chunk, the chunk's stamp over every column the
// registration reads, read right after the chunk was folded. A later
// registration with the same signature, grouping and aggregates whose
// table has as many chunks, none stamped later, is answered with a copy
// of that partial and never rides the cursor: a stamp that has not
// moved means the chunk still holds what was folded. The stored rows
// are in group order (ascending group values, compareKeys), as the pass
// emitted them, and the copy keeps it: the sink merges a replay like a
// fold, with no sort on either side. Any newer chunk sends the
// registration round the cursor, and its finish stores the new partial. The whole partition is one entry: merging per-chunk
// partials of c_state costs a third of folding the chunk.
//
// The memo is bounded: memoSigs signatures per (table, partition), and
// memoSigs partials per signature, the least recently registered one
// dropped when a new one arrives. A registration keeps the signature
// and the partial it attached with, dropped or not.

// memoSigs bounds the signatures a Worker keeps per (table, partition),
// and the partials it keeps per signature.
const memoSigs = 8

// memoSig is one memoized signature: the filters and the key filter,
// compiled against the table once (the key filter over a private copy:
// the join recycles the bitmap it hands out), the columns they read,
// and one entry per chunk. The compiled filters' dictionary bitsets
// live as long as the signature.
type memoSig struct {
	preds    []compiledPred
	keys     *keyScan // nil without a key filter
	reads    storage.ColSet
	chunks   []memoEntry
	partials []*memoPartial // most recently registered first
}

// memoEntry is one chunk's memoized selection. Stamp 0 marks none: a
// chunk's stamp is at least 1.
type memoEntry struct {
	stamp uint64
	pre   int
	rows  []int32
}

// memoPartial is one aggregate pushdown's memoized partial: the
// grouping and aggregates it answers, the partial batch its last full
// pass emitted (outside the batch pool; nil until one is stored), the
// per-chunk stamps of that pass, and the rows it charged ScanRow and
// AggRow for. spare is the stamp slice before the last store, which the
// next registration to ride the cursor records into.
type memoPartial struct {
	groupBy         []string
	aggs            []AggExpr
	batch           *storage.Batch
	stamps, spare   []uint64
	scanned, folded int
}

// signature returns the signature of filters and keys in the memo of key,
// the most recently used first, adding it (and dropping the least
// recently used past memoSigs) when it is new. A streaming registration
// with no filter and no key filter gets nil: it keeps every row anyway.
// An aggregate pushdown always gets one, for its partials.
func (w *Worker) signature(key sharedKey, schema *storage.Schema, filters []Predicate, keys *KeyFilter, agg bool) *memoSig {
	if len(filters) == 0 && keys == nil && !agg {
		return nil
	}
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
			Span: slices.Clone(keys.Span), Bits: slices.Clone(keys.Bits)})
		for _, p := range s.keys.ranges {
			s.reads |= 1 << p.col
		}
	}
	if w.memos == nil {
		w.memos = make(map[sharedKey][]*memoSig)
	}
	w.memos[key] = pushFront(sigs, s)
	return s
}

// is reports whether the signature is filters and keys.
func (s *memoSig) is(filters []Predicate, keys *KeyFilter) bool {
	same := func(p compiledPred, f Predicate) bool { return p.Predicate == f }
	if !slices.EqualFunc(s.preds, filters, same) || (s.keys == nil) != (keys == nil) {
		return false
	}
	if keys == nil {
		return true
	}
	f := s.keys.f
	return slices.Equal(f.Cols, keys.Cols) && slices.Equal(f.Lo, keys.Lo) &&
		slices.Equal(f.Span, keys.Span) && slices.Equal(f.Bits, keys.Bits)
}

// partial returns the signature's partial for groupBy and aggs, the most
// recently used first, adding an empty one (and dropping the least
// recently used past memoSigs) when it is new.
func (s *memoSig) partial(groupBy []string, aggs []AggExpr) *memoPartial {
	for i, p := range s.partials {
		if slices.Equal(p.groupBy, groupBy) && slices.Equal(p.aggs, aggs) {
			toFront(s.partials, i)
			return p
		}
	}
	p := &memoPartial{groupBy: slices.Clone(groupBy), aggs: slices.Clone(aggs)}
	s.partials = pushFront(s.partials, p)
	return p
}

// toFront moves list[i] to the front of list, keeping the order of the
// rest.
func toFront[T any](list []T, i int) {
	v := list[i]
	copy(list[1:i+1], list[:i])
	list[0] = v
}

// pushFront returns list with v in front, the last element dropped past
// memoSigs.
func pushFront[T any](list []T, v T) []T {
	if len(list) < memoSigs {
		list = append(list, v)
	}
	copy(list[1:], list)
	list[0] = v
	return list
}

// fresh reports whether the partial answers a pass over t's n chunks
// that reads cols: one is stored, over n chunks, and no chunk is
// stamped later than when it was folded. Each chunk is fetched first,
// which makes its stamp current; the check stops at the first newer
// chunk.
func (p *memoPartial) fresh(t *storage.Table, n int, cols storage.ColSet) bool {
	if p.batch == nil || len(p.stamps) != n {
		return false
	}
	for ci, stamp := range p.stamps {
		t.ColChunkCols(ci, cols)
		if t.ChunkStamp(ci, cols) > stamp {
			return false
		}
	}
	return true
}
