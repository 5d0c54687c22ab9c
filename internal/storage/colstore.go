package storage

import "math"

// Columnar chunk cache: the scan-side storage layout behind the shared
// analytical scans (Vertica's projection store, scaled to this repo's
// micro-model). The row heap stays the OLTP source of truth; each table
// lazily mirrors fixed-size slot ranges ("chunks") into encoded columnar
// vectors that analytical scans read directly, so a shared cursor
// amortizes a vectorized scan rather than a per-row map-lookup walk.
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
// Consistency is version-based: every heap write stamps the chunk it
// touches (markColDirty, a shift + bounds check + increment — nothing
// the 0-alloc OLTP path can feel), and ColChunk rebuilds a chunk only
// when its cached build is stale. Dictionaries assign codes append-only,
// so chunks built at different dictionary generations stay mutually
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
// retain it past the next table write.
type EncChunk struct {
	Schema *Schema
	Cols   []EncVec
	n      int
}

// Len returns the chunk's live-row count (tombstones are skipped).
func (c *EncChunk) Len() int { return c.n }

// colChunk is one chunk-cache entry. version counts writes into the
// range; built records the version the cached chunk was built at (valid
// iff chunk != nil && built == version).
type colChunk struct {
	version uint32
	built   uint32
	chunk   *EncChunk
}

// markColDirty stamps the chunk covering slot as stale. Called on every
// heap write; must stay allocation-free and branch-cheap.
func (t *Table) markColDirty(slot int32) {
	ci := int(slot >> ColChunkShift)
	if ci < len(t.colChunks) {
		t.colChunks[ci].version++
	}
}

// NumColChunks returns how many chunks cover the heap (including the
// trailing partial chunk). Chunks are addressed 0..NumColChunks()-1.
func (t *Table) NumColChunks() int {
	return (len(t.rows) + ColChunkRows - 1) >> ColChunkShift
}

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

// ColChunk returns the encoded columnar mirror of chunk ci, rebuilding
// it from the row heap if it was never built or a write landed in its
// range. The returned chunk is owned by the table: callers must not
// mutate, free, or retain it past the next table write.
func (t *Table) ColChunk(ci int) *EncChunk {
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
	if c.chunk != nil && c.built == c.version {
		return c.chunk
	}
	ch := c.chunk
	if ch == nil {
		ch = &EncChunk{Schema: t.Schema, Cols: make([]EncVec, t.Schema.NumCols())}
	}

	// Live slots of the range, collected once so each column encodes in
	// a tight typed loop (scratch reused across rebuilds).
	lo := ci << ColChunkShift
	hi := min(lo+ColChunkRows, len(t.rows))
	slots := t.chunkSlots[:0]
	for slot := lo; slot < hi; slot++ {
		if t.rows[slot] != nil {
			slots = append(slots, int32(slot))
		}
	}
	t.chunkSlots = slots
	ch.n = len(slots)

	for col := range ch.Cols {
		v := &ch.Cols[col]
		kind := t.Schema.Cols[col].Kind
		v.Reset(kind)
		switch kind {
		case KFloat:
			for _, s := range slots {
				v.Floats = append(v.Floats, t.rows[s][col].F)
			}
		case KStr:
			if !t.encodeDict(v, col, slots) {
				for _, s := range slots {
					v.Strs = append(v.Strs, t.rows[s][col].S)
				}
			}
		default: // KInt: dictionary first, then frame-of-reference, then raw
			if t.encodeDict(v, col, slots) {
				break
			}
			for _, s := range slots {
				v.Ints = append(v.Ints, t.rows[s][col].I)
			}
			encodeFoR(v)
		}
	}
	c.chunk, c.built = ch, c.version
	return ch
}

// encodeDict tries to dictionary-encode the column over the given slots,
// assigning new codes as it goes. It reports false — leaving v raw-empty
// — when the dictionary seals mid-encode (the cap was hit), which is
// permanent: later rebuilds skip the attempt via Sealed.
func (t *Table) encodeDict(v *EncVec, col int, slots []int32) bool {
	d := t.dict(col)
	if d.Sealed() {
		return false
	}
	if v.Kind == KStr {
		for _, s := range slots {
			code, ok := d.codeStr(t.rows[s][col].S)
			if !ok {
				v.Codes = v.Codes[:0]
				return false
			}
			v.Codes = append(v.Codes, code)
		}
	} else {
		for _, s := range slots {
			code, ok := d.codeInt(t.rows[s][col].I)
			if !ok {
				v.Codes = v.Codes[:0]
				return false
			}
			v.Codes = append(v.Codes, code)
		}
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
