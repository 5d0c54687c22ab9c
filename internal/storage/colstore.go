package storage

import (
	"math"
	"math/bits"
)

// Columnar chunk cache: the scan-side storage layout behind the shared
// analytical scans (Vertica's projection store, scaled to this repo's
// micro-model). The row heap stays the OLTP source of truth; each table
// lazily mirrors fixed-size slot ranges ("chunks") into encoded columnar
// vectors that analytical scans read directly, so a shared cursor
// amortizes a vectorized scan rather than a per-row map-lookup walk.
// Chunk ci mirrors heap page ci (table.go): its live slots come from the
// page's bitmap, and a rebuild reads the page's typed column runs — int
// and float words, string cells — with no Value in between.
//
// Chunk rebuilds emit *encoded* columns, chosen per column per chunk:
//
//   - EncDict: dictionary codes (uint32) against the table's per-column
//     dictionary (dict.go) — strings always try this, ints try it under
//     a small cap so low-cardinality grouping columns get dense codes;
//   - EncFoR: frame-of-reference for int columns whose chunk-local range
//     fits uint32 — values are Ref (the chunk min) + a uint32 delta;
//   - EncRaw: the plain typed vector when neither encoding pays
//     (floats, sealed dictionaries with a wide value range).
//
// Consistency is per column. Each chunk keeps one fresh bit per column
// whose encoded vector matches the heap, plus a flag saying its live-slot
// list does. A heap write clears only what it changed (staleCol,
// staleChunk: a shift, a bounds check and a mask — nothing the 0-alloc
// OLTP path can feel): UpdateAt clears its column's bit; Insert, Append,
// Delete and AbortAppend clear every bit and the flag. A scan fetches
// the columns it reads (ColChunkCols): the live slots are recounted only
// when the flag is down, and only the stale columns of the read set are
// re-encoded, so a column no scan reads is never encoded and its
// dictionary never built. Dictionaries assign codes append-only, so
// columns encoded at different dictionary generations stay mutually
// consistent. Single ownership does the rest: the partition's owner AC
// is the only reader and the only writer, so no locking is needed, and
// the cache travels with the partition on a live handoff like every
// other table state.

// ColChunkShift sets the chunk size: 1<<ColChunkShift heap slots per
// columnar chunk. 2048 matches the scan operators' chunk granularity.
const ColChunkShift = 11

// ColChunkRows is the number of heap slots per columnar chunk.
const ColChunkRows = 1 << ColChunkShift

// EncKind says how one chunk column is physically encoded.
type EncKind uint8

const (
	EncRaw  EncKind = iota // typed vector (Ints / Floats / Strs)
	EncDict                // Codes are dictionary codes; Dict decodes
	EncFoR                 // Codes are deltas from Ref (frame-of-reference)
)

// EncVec is the one column vector of the analytical path: a chunk's
// encoded column, a message batch's column (always raw), and a group
// table's per-slot keys and accumulators. Exactly one representation is
// live, selected by Enc; the others keep their capacity for the next
// rebuild or reuse.
type EncVec struct {
	Enc    EncKind
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Codes  []uint32 // EncDict: dictionary codes; EncFoR: deltas from Ref
	Ref    int64    // EncFoR frame of reference (the chunk minimum)
	Dict   *Dict    // EncDict: the table's column dictionary
}

// Reset empties v as a raw vector of kind, keeping slice capacity — for
// a chunk rebuild, a batch back to its pool or a recycled group table.
func (v *EncVec) Reset(kind Kind) {
	v.Enc, v.Kind, v.Ref, v.Dict = EncRaw, kind, 0, nil
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	clear(v.Strs) // release string cells so no cache or pool pins old rows
	v.Strs = v.Strs[:0]
	v.Codes = v.Codes[:0]
}

// Value materializes row i of the column, decoding as needed. Dictionary
// decode returns the interned dictionary string — no allocation.
func (v *EncVec) Value(i int) Value {
	switch v.Enc {
	case EncDict:
		return v.Dict.DecodeValue(v.Codes[i])
	case EncFoR:
		return Int(v.Ref + int64(v.Codes[i]))
	default:
		switch v.Kind {
		case KInt:
			return Int(v.Ints[i])
		case KFloat:
			return Float(v.Floats[i])
		default:
			return Str(v.Strs[i])
		}
	}
}

// EncChunk is one cached columnar mirror of a heap slot range, in
// encoded form. It is owned by the table: readers must not mutate or
// retain it past the next table write, and may read only the columns
// they fetched it with — the others can hold an older image, or nothing.
type EncChunk struct {
	Schema *Schema
	Cols   []EncVec
	slots  []int32 // the range's live heap slots, in order: row i is slots[i]
}

// Len returns the chunk's live-row count (tombstones are skipped).
func (c *EncChunk) Len() int { return len(c.slots) }

// ColSet is a set of a table's columns, one bit per column position: the
// columns a scan reads, or those of a chunk whose encoding is fresh.
type ColSet uint64

// maxCols is the widest schema a table accepts: one ColSet bit a column.
const maxCols = 64

// allCols is the set of a schema's n columns. A shift by 64 yields 0 for
// an unsigned value, so n = maxCols gives every bit.
func allCols(n int) ColSet { return ColSet(1)<<n - 1 }

// colChunk is one chunk-cache entry: the chunk (nil until first fetched),
// the columns whose encoded vector matches the heap, and whether its
// live-slot list does. A write that changes the slot list clears every
// fresh bit too, so slotsOK false implies fresh == 0.
type colChunk struct {
	fresh   ColSet
	slotsOK bool
	chunk   *EncChunk
}

// staleCol marks column col of the chunk covering slot stale (an
// in-place cell update). Called on every UpdateAt; must stay
// allocation-free and branch-cheap.
func (t *Table) staleCol(slot int32, col int) {
	if ci := int(slot >> ColChunkShift); ci < len(t.colChunks) {
		t.colChunks[ci].fresh &^= 1 << col
	}
}

// staleChunk marks the chunk covering slot wholly stale — its live slots
// and every column — on a write that adds or removes a row.
func (t *Table) staleChunk(slot int32) {
	if ci := int(slot >> ColChunkShift); ci < len(t.colChunks) {
		t.colChunks[ci].fresh, t.colChunks[ci].slotsOK = 0, false
	}
}

// NumColChunks returns how many chunks cover the heap (including the
// trailing partial chunk). Chunks are addressed 0..NumColChunks()-1.
func (t *Table) NumColChunks() int { return len(t.pages) }

// dict returns the table's dictionary for col, creating it lazily on the
// first chunk rebuild that wants one. Float columns never dictionary-
// encode. The pointer is stable for the life of the table (sealing does
// not replace it), so chunk-cached Dict references never dangle.
func (t *Table) dict(col int) *Dict {
	if t.dicts == nil {
		t.dicts = make([]*Dict, t.Schema.NumCols())
	}
	d := t.dicts[col]
	if d == nil {
		d = newDict(t.Schema.Cols[col].Kind)
		t.dicts[col] = d
	}
	return d
}

// Dict exposes the column dictionary if one exists (nil otherwise) —
// read-only access for scan operators compiling predicates to codes.
func (t *Table) Dict(col int) *Dict {
	if t.dicts == nil {
		return nil
	}
	return t.dicts[col]
}

// ColChunk returns the encoded columnar mirror of chunk ci with every
// column current: ColChunkCols over the whole schema.
func (t *Table) ColChunk(ci int) *EncChunk {
	return t.ColChunkCols(ci, allCols(t.Schema.NumCols()))
}

// ColChunkCols returns the encoded columnar mirror of chunk ci with the
// columns of need current. It recounts the range's live slots only if a
// row was added or removed since the last fetch, and re-encodes from the
// row heap only the columns of need a write staled (or never built).
// Columns outside need are left as they are. The returned chunk is owned
// by the table: callers must not mutate, free, or retain it past the
// next table write, and may read only the columns of need. ci must be
// below NumColChunks().
func (t *Table) ColChunkCols(ci int, need ColSet) *EncChunk {
	if ci >= len(t.colChunks) {
		if ci >= cap(t.colChunks) {
			grown := make([]colChunk, ci+1, max(2*cap(t.colChunks), ci+1))
			copy(grown, t.colChunks)
			t.colChunks = grown
		} else {
			t.colChunks = t.colChunks[:ci+1]
		}
	}
	c := &t.colChunks[ci]
	stale := need &^ c.fresh
	if stale == 0 && c.slotsOK {
		return c.chunk
	}
	ch := c.chunk
	if ch == nil {
		ch = &EncChunk{Schema: t.Schema, Cols: make([]EncVec, t.Schema.NumCols())}
		c.chunk = ch
	}
	p := t.pages[ci]
	if !c.slotsOK {
		// Live slots of the page, collected once from its bitmap so each
		// column encodes in a tight typed loop.
		base := int32(ci << ColChunkShift)
		ch.slots = ch.slots[:0]
		for w, m := range p.live {
			for ; m != 0; m &= m - 1 {
				ch.slots = append(ch.slots, base+int32(w<<6+bits.TrailingZeros64(m)))
			}
		}
		c.slotsOK = true
	}
	for ; stale != 0; stale &= stale - 1 {
		col := bits.TrailingZeros64(uint64(stale))
		t.encodeCol(&ch.Cols[col], p, col, ch.slots)
	}
	c.fresh |= need
	return ch
}

// encodeCol re-encodes column col over the given live slots of page p
// into v, reading the page's typed words directly.
func (t *Table) encodeCol(v *EncVec, p *page, col int, slots []int32) {
	kind := t.Schema.Cols[col].Kind
	v.Reset(kind)
	lo, hi := int(t.lane[col])<<ColChunkShift, int(t.lane[col]+1)<<ColChunkShift
	switch kind {
	case KFloat:
		words := p.words[lo:hi]
		for _, s := range slots {
			v.Floats = append(v.Floats, math.Float64frombits(words[s&(ColChunkRows-1)]))
		}
	case KStr:
		strs := p.strs[lo:hi]
		if !encodeDict(v, t.dict(col), nil, strs, slots) {
			for _, s := range slots {
				v.Strs = append(v.Strs, strs[s&(ColChunkRows-1)])
			}
		}
	default: // KInt: dictionary first, then frame-of-reference, then raw
		words := p.words[lo:hi]
		if encodeDict(v, t.dict(col), words, nil, slots) {
			break
		}
		for _, s := range slots {
			v.Ints = append(v.Ints, int64(words[s&(ColChunkRows-1)]))
		}
		encodeFoR(v)
	}
}

// encodeDict tries to dictionary-encode a column run — strs for a string
// column, words for an int one — over the given slots, assigning new
// codes as it goes. It reports false — leaving v raw-empty — when the
// dictionary seals mid-encode (the cap was hit), which is permanent:
// later rebuilds skip the attempt via Sealed.
func encodeDict(v *EncVec, d *Dict, words []uint64, strs []string, slots []int32) bool {
	if d.Sealed() {
		return false
	}
	for _, s := range slots {
		var code uint32
		var ok bool
		if v.Kind == KStr {
			code, ok = d.codeStr(strs[s&(ColChunkRows-1)])
		} else {
			code, ok = d.codeInt(int64(words[s&(ColChunkRows-1)]))
		}
		if !ok {
			v.Codes = v.Codes[:0]
			return false
		}
		v.Codes = append(v.Codes, code)
	}
	v.Enc, v.Dict = EncDict, d
	return true
}

// encodeFoR rewrites a raw int vector as frame-of-reference deltas when
// the chunk-local range fits uint32 (so the vector halves and predicate
// constants translate into the delta domain). Otherwise the raw vector
// stays — the range doesn't pay.
func encodeFoR(v *EncVec) {
	if len(v.Ints) == 0 {
		return
	}
	lo, hi := v.Ints[0], v.Ints[0]
	for _, x := range v.Ints[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if uint64(hi-lo) > math.MaxUint32 {
		return
	}
	for _, x := range v.Ints {
		v.Codes = append(v.Codes, uint32(x-lo))
	}
	v.Enc, v.Ref = EncFoR, lo
	v.Ints = v.Ints[:0]
}
