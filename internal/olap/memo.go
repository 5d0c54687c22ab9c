package olap

import (
	"slices"

	"anydb/internal/storage"
)

// The selection memo: the one place where the shared scan compiles,
// evaluates and shares filters. A Worker remembers, per (table,
// partition), which rows of each chunk a registration kept, so every
// later registration with the same filters and key filter skips both
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
// The memo is bounded: memoSigs signatures per (table, partition), the
// least recently registered one dropped when a new one arrives. A
// registration keeps the signature it attached with, dropped or not.

// memoSigs bounds the signatures a Worker keeps per (table, partition).
const memoSigs = 8

// memoSig is one memoized signature: the filters and the key filter,
// compiled against the table once (the key filter over a private copy:
// the join recycles the bitmap it hands out), the columns they read,
// and one entry per chunk. The compiled filters' dictionary bitsets
// live as long as the signature.
type memoSig struct {
	preds  []compiledPred
	keys   *keyScan // nil without a key filter
	reads  storage.ColSet
	chunks []memoEntry
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
// recently used past memoSigs) when it is new. A registration with no
// filter and no key filter gets nil: it keeps every row anyway.
func (w *Worker) signature(key sharedKey, schema *storage.Schema, filters []Predicate, keys *KeyFilter) *memoSig {
	if len(filters) == 0 && keys == nil {
		return nil
	}
	sigs := w.memos[key]
	for i, s := range sigs {
		if s.is(filters, keys) {
			copy(sigs[1:i+1], sigs[:i])
			sigs[0] = s
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
	if len(sigs) < memoSigs {
		sigs = append(sigs, nil)
	}
	copy(sigs[1:], sigs)
	sigs[0] = s
	if w.memos == nil {
		w.memos = make(map[sharedKey][]*memoSig)
	}
	w.memos[key] = sigs
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
