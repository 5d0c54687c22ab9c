package olap

import (
	"cmp"
	"slices"
	"strconv"
	"sync"

	"anydb/internal/storage"
)

// groupTable is one grouped aggregation's state — a shared-scan
// registration's partial aggregate, or a sink's merge of partials or
// fold of raw rows — held column-wise. Groups are integer slots, and
// every per-group quantity is a typed vector indexed by slot:
//
//   - rows counts the rows folded into each slot. It is COUNT's value
//     and AVG's divisor (every row feeds every aggregate, so one count
//     serves them all), and on the dense path, where the whole code
//     space exists up front, rows > 0 is what makes a slot a group;
//   - SUM and AVG add into a pointer-free int64 or float64 vector;
//   - MIN and MAX keep their extreme in a vector of the source kind,
//     seen marking the slots that hold one;
//   - keyVecs holds each slot's group values, one vector per group
//     column.
//
// A slot is either a packed combination of dictionary codes (the dense
// path, initDense) or an index the key map hands out in first-seen order
// (slotOf). Both layouts read back as a chunk of columns (view), so the
// partial batch and the result gather column by column. Tables recycle
// through groupTables when their operator closes.
type groupTable struct {
	aggs []aggVec
	rows []int64

	keyVecs []storage.EncVec
	strKey  bool             // one string group column: the map is keyed by the value itself
	index   map[string]int32 // group key -> slot
	keys    []string         // per slot: its index key, whose order is the result's group order
	keyBuf  []byte

	// Dense layout: slot = Σ code[g] × stride[g] over the group columns,
	// keyVecs are dictionary-coded with one code per slot.
	dense  bool
	dims   []int
	stride []int

	// Scratch: per-row slots, an identity selection, and the chunk view.
	at   []int32
	sel  []int32
	view storage.EncChunk
}

// aggVec is one aggregate's accumulator vector (raw-encoded, of the
// accumulator's kind); COUNT has none and reads the table's rows.
type aggVec struct {
	fn   AggFn
	vals storage.EncVec
	seen []bool // MIN/MAX
}

// groupTables recycles tables (and so their vectors, map and scratch)
// across queries.
var groupTables sync.Pool

// getGroupTable returns an empty table for aggs grouped by nKeys columns.
// The caller sets each accumulator's kind (aggs[j].vals.Kind) before the
// first fold; key kinds follow the first grouped row (keyOn).
func getGroupTable(aggs []AggExpr, nKeys int) *groupTable {
	g, _ := groupTables.Get().(*groupTable)
	if g == nil {
		g = &groupTable{index: make(map[string]int32)}
	}
	g.aggs = slices.Grow(g.aggs[:0], len(aggs))[:len(aggs)]
	for j, a := range aggs {
		g.aggs[j].fn = a.Fn
	}
	g.keyVecs = slices.Grow(g.keyVecs[:0], nKeys)[:nKeys]
	return g
}

// release empties the table and returns it to the pool. Nothing may
// read it afterwards: the batches gathered from it hold copies.
func (g *groupTable) release() {
	g.rows = g.rows[:0]
	for j := range g.aggs {
		a := &g.aggs[j]
		resetVec(&a.vals, storage.KInt)
		a.seen = a.seen[:0]
	}
	for k := range g.keyVecs {
		resetVec(&g.keyVecs[k], storage.KInt)
	}
	clear(g.index)
	clear(g.keys)
	g.keys = g.keys[:0]
	g.strKey, g.dense = false, false
	clear(g.view.Cols) // drop the dictionary and vector references
	g.view.Cols = g.view.Cols[:0]
	groupTables.Put(g)
}

// resetVec empties v as a raw vector of kind, keeping its capacity.
func resetVec(v *storage.EncVec, kind storage.Kind) {
	clear(v.Strs)
	v.Enc, v.Kind, v.Ref, v.Dict = storage.EncRaw, kind, 0, nil
	v.Ints, v.Floats, v.Strs, v.Codes = v.Ints[:0], v.Floats[:0], v.Strs[:0], v.Codes[:0]
}

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// resize sizes every per-slot vector to n zeroed slots (the dense path).
func (g *groupTable) resize(n int) {
	g.rows = zeroed(g.rows, n)
	for j := range g.aggs {
		a := &g.aggs[j]
		if a.fn == AggCount {
			continue
		}
		switch a.vals.Kind {
		case storage.KInt:
			a.vals.Ints = zeroed(a.vals.Ints, n)
		case storage.KFloat:
			a.vals.Floats = zeroed(a.vals.Floats, n)
		default:
			a.vals.Strs = zeroed(a.vals.Strs, n)
		}
		if a.fn == AggMin || a.fn == AggMax {
			a.seen = zeroed(a.seen, n)
		}
	}
}

// addSlot appends one zeroed slot and returns it.
func (g *groupTable) addSlot() int32 {
	s := int32(len(g.rows))
	g.rows = append(g.rows, 0)
	for j := range g.aggs {
		a := &g.aggs[j]
		if a.fn == AggCount {
			continue
		}
		appendZero(&a.vals)
		if a.fn == AggMin || a.fn == AggMax {
			a.seen = append(a.seen, false)
		}
	}
	return s
}

// keyOn fixes the key columns' kinds from the source columns cols before
// the first group is added.
func (g *groupTable) keyOn(src []storage.EncVec, cols []int) {
	for k, c := range cols {
		resetVec(&g.keyVecs[k], src[c].Kind)
	}
	g.strKey = len(cols) == 1 && src[cols[0]].Kind == storage.KStr
}

// slotOf returns the slot of the group whose key is row i of the source
// columns cols, adding the group when it is new: one map probe per row.
// No grouping columns means one global slot. A single string column keys
// the map by its value — for a dictionary column the dictionary's own
// string, so neither lookup nor insert encodes or allocates a key —
// and any other grouping by the canonical appendKeyVal encoding.
func (g *groupTable) slotOf(src []storage.EncVec, cols []int, i int) int32 {
	if len(cols) == 0 {
		if len(g.rows) == 0 {
			g.addSlot()
		}
		return 0
	}
	if len(g.rows) == 0 {
		g.keyOn(src, cols)
	}
	if g.strKey {
		key := strAt(&src[cols[0]], i)
		if s, ok := g.index[key]; ok {
			return s
		}
		return g.addGroup(key, src, cols, i)
	}
	g.keyBuf = g.keyBuf[:0]
	for _, c := range cols {
		g.keyBuf = appendKeyVal(g.keyBuf, src[c].Value(i))
	}
	if s, ok := g.index[string(g.keyBuf)]; ok {
		return s
	}
	return g.addGroup(string(g.keyBuf), src, cols, i)
}

// addGroup adds a slot for the group keyed key, whose values are row i
// of the source columns cols.
func (g *groupTable) addGroup(key string, src []storage.EncVec, cols []int, i int) int32 {
	s := g.addSlot()
	g.index[key] = s
	g.keys = append(g.keys, key)
	for k, c := range cols {
		appendCell(&g.keyVecs[k], &src[c], i)
	}
	return s
}

// appendKeyVal appends one value's canonical group-key encoding to buf
// (NUL-terminated; kinds are fixed per column so the encoding cannot
// collide across kinds). Sorting by it is the result's group order; for
// a single string column it orders exactly as the strings themselves.
func appendKeyVal(buf []byte, v storage.Value) []byte {
	switch v.Kind {
	case storage.KInt:
		buf = strconv.AppendInt(buf, v.I, 10)
	case storage.KFloat:
		buf = strconv.AppendFloat(buf, v.F, 'g', -1, 64)
	default:
		buf = append(buf, v.S...)
	}
	return append(buf, 0)
}

// denseSlotCap bounds the dense accumulator's group-combination space.
// Past it (high-cardinality or many-column groupings) the map path is
// the right tool anyway.
const denseSlotCap = 4096

// initDense lays the table out densely over the group columns cols of
// chunk c: one slot per combination of dictionary codes, each dimension
// padded with slack so codes assigned later in the pass (the dictionary
// grows as dirtied chunks rebuild) still land in range. Reports false
// when a group column is not dictionary-encoded in this chunk or the
// combination space exceeds denseSlotCap.
func (g *groupTable) initDense(c *storage.EncChunk, cols []int) bool {
	slots := 1
	g.dims, g.stride = g.dims[:0], g.stride[:0]
	for _, col := range cols {
		v := &c.Cols[col]
		if v.Enc != storage.EncDict {
			return false
		}
		dim := v.Dict.Len() + v.Dict.Len()/2 + 8
		g.dims, g.stride = append(g.dims, dim), append(g.stride, slots)
		slots *= dim
		if slots > denseSlotCap {
			return false
		}
	}
	g.resize(slots)
	for k, col := range cols {
		kv := &g.keyVecs[k]
		resetVec(kv, c.Cols[col].Kind)
		kv.Enc, kv.Dict = storage.EncDict, c.Cols[col].Dict
		kv.Codes = slices.Grow(kv.Codes, slots)[:slots]
		for p := range kv.Codes {
			kv.Codes[p] = uint32(p / g.stride[k] % g.dims[k])
		}
	}
	g.strKey = len(cols) == 1 && c.Cols[cols[0]].Kind == storage.KStr
	g.dense = true
	return true
}

// denseSlots writes the packed slot of each matched row of chunk c into
// g.at, stopping at the first row whose code lies past the padded dims;
// it returns how many rows it placed — none when the chunk does not code
// every group column with the dictionary the layout was sized from.
func (g *groupTable) denseSlots(c *storage.EncChunk, cols []int, match []int32) int {
	for k, col := range cols {
		if v := &c.Cols[col]; v.Enc != storage.EncDict || v.Dict != g.keyVecs[k].Dict {
			g.at = g.at[:0]
			return 0
		}
	}
	at := slices.Grow(g.at[:0], len(match))
	if len(cols) == 1 {
		// The headline shape, GROUP BY one dictionary column: the code is
		// the slot.
		codes, dim := c.Cols[cols[0]].Codes, uint32(g.dims[0])
		for _, m := range match {
			code := codes[m]
			if code >= dim {
				break
			}
			at = append(at, int32(code))
		}
		g.at = at
		return len(at)
	}
	for _, m := range match {
		packed := 0
		for k, col := range cols {
			code := int(c.Cols[col].Codes[m])
			if code >= g.dims[k] {
				g.at = at
				return len(at)
			}
			packed += code * g.stride[k]
		}
		at = append(at, int32(packed))
	}
	g.at = at
	return len(at)
}

// undense turns a dense table into a keyed one in place, for a pass whose
// chunks stopped fitting the dense layout: the groups keep their slots
// and enter the key map (keyed exactly as slotOf keys them, so both
// halves of the pass merge as one group set), and groups found from here
// on append after the code space.
func (g *groupTable) undense() {
	n := len(g.rows)
	for k := range g.keyVecs {
		kv := &g.keyVecs[k]
		for p := 0; p < n; p++ {
			if g.rows[p] > 0 {
				appendCell(kv, kv, p) // decode from the codes into the raw vector
			} else {
				appendZero(kv)
			}
		}
		kv.Enc, kv.Dict, kv.Codes = storage.EncRaw, nil, kv.Codes[:0]
	}
	g.keys = zeroed(g.keys, n)
	for p := 0; p < n; p++ {
		if g.rows[p] == 0 {
			continue
		}
		var key string
		if g.strKey {
			key = g.keyVecs[0].Strs[p]
		} else {
			g.keyBuf = g.keyBuf[:0]
			for k := range g.keyVecs {
				g.keyBuf = appendKeyVal(g.keyBuf, g.keyVecs[k].Value(p))
			}
			key = string(g.keyBuf)
		}
		g.index[key], g.keys[p] = int32(p), key
	}
	g.dense = false
}

// count adds one row to each slot in at.
func (g *groupTable) count(at []int32) {
	rows := g.rows
	for _, s := range at {
		rows[s]++
	}
}

// fold folds rows sel of the source columns into the slots at (at[i] is
// sel[i]'s slot): the row counts, then one typed loop per aggregate over
// its source column src[aggIdx[j]].
func (g *groupTable) fold(src []storage.EncVec, aggIdx []int, sel, at []int32) {
	g.count(at)
	for j := range g.aggs {
		if g.aggs[j].fn != AggCount {
			g.aggs[j].add(&src[aggIdx[j]], sel, at)
		}
	}
}

// add folds column v over rows sel into the slots at. SUM and AVG add the
// values (merging partials is the same: their sums are values); MIN and
// MAX keep the extreme.
func (a *aggVec) add(v *storage.EncVec, sel, at []int32) {
	switch a.fn {
	case AggSum, AggAvg:
		switch {
		case a.vals.Kind == storage.KInt:
			sums := a.vals.Ints
			for i, m := range sel {
				sums[at[i]] += intAt(v, int(m))
			}
		case v.Kind == storage.KFloat:
			sums := a.vals.Floats
			for i, m := range sel {
				sums[at[i]] += v.Floats[m]
			}
		default: // AVG of an int column
			sums := a.vals.Floats
			for i, m := range sel {
				sums[at[i]] += float64(intAt(v, int(m)))
			}
		}
	case AggMin, AggMax:
		isMax := a.fn == AggMax
		switch a.vals.Kind {
		case storage.KInt:
			for i, m := range sel {
				extreme(a.vals.Ints, a.seen, at[i], intAt(v, int(m)), isMax)
			}
		case storage.KFloat:
			for i, m := range sel {
				extreme(a.vals.Floats, a.seen, at[i], v.Floats[m], isMax)
			}
		default:
			for i, m := range sel {
				extreme(a.vals.Strs, a.seen, at[i], strAt(v, int(m)), isMax)
			}
		}
	}
}

// extreme folds x into slot s of a MIN (isMax false) or MAX accumulator.
func extreme[T cmp.Ordered](cur []T, seen []bool, s int32, x T, isMax bool) {
	if !seen[s] || (isMax && x > cur[s]) || (!isMax && x < cur[s]) {
		cur[s], seen[s] = x, true
	}
}

// addCounts adds counts[i] to slot at[i]'s row count (merging partials,
// whose COUNT and AVG columns carry their groups' row counts).
func (g *groupTable) addCounts(counts []int64, at []int32) {
	rows := g.rows
	for i, s := range at {
		rows[s] += counts[i]
	}
}

// touched returns the slots any row was folded into, in slot order: the
// groups of a scan's table (whose dense layout holds a slot for every
// code combination).
func (g *groupTable) touched() []int32 {
	sel := g.sel[:0]
	for s, n := range g.rows {
		if n > 0 {
			sel = append(sel, int32(s))
		}
	}
	g.sel = sel
	return sel
}

// sorted returns every slot of a sink's table (all of them groups) in
// group-key order.
func (g *groupTable) sorted() []int32 {
	g.sel = identity(g.sel, len(g.rows))
	if len(g.keys) == len(g.sel) {
		slices.SortFunc(g.sel, func(a, b int32) int { return cmp.Compare(g.keys[a], g.keys[b]) })
	}
	return g.sel
}

// viewOf lays the table out as a chunk for Batch.AppendChunkRows: the
// key columns, then each aggregate's columns. In partial layout COUNT is
// the row count and AVG its sum and the row count. Finalized, AVG is the
// sum divided by the count (0 for an empty group), computed in place: a
// finalized table is only read, then released.
func (g *groupTable) viewOf(final bool) *storage.EncChunk {
	view := append(g.view.Cols[:0], g.keyVecs...)
	counts := storage.EncVec{Kind: storage.KInt, Ints: g.rows}
	for j := range g.aggs {
		a := &g.aggs[j]
		switch {
		case a.fn == AggCount:
			view = append(view, counts)
		case a.fn == AggAvg && final:
			for s, n := range g.rows {
				if n != 0 {
					a.vals.Floats[s] /= float64(n)
				}
			}
			view = append(view, a.vals)
		case a.fn == AggAvg:
			view = append(view, a.vals, counts)
		default:
			view = append(view, a.vals)
		}
	}
	g.view.Cols = view
	return &g.view
}

// identity returns the selection 0..n-1, reusing sel's capacity.
func identity(sel []int32, n int) []int32 {
	sel = slices.Grow(sel[:0], n)[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// intAt decodes row i of int column v.
func intAt(v *storage.EncVec, i int) int64 {
	switch v.Enc {
	case storage.EncFoR:
		return v.Ref + int64(v.Codes[i])
	case storage.EncDict:
		return v.Dict.DecodeInt(v.Codes[i])
	}
	return v.Ints[i]
}

// strAt decodes row i of string column v; a dictionary column returns the
// interned dictionary string.
func strAt(v *storage.EncVec, i int) string {
	if v.Enc == storage.EncDict {
		return v.Dict.DecodeStr(v.Codes[i])
	}
	return v.Strs[i]
}

// appendCell appends row i of src, decoded, to the raw vector dst of the
// same kind.
func appendCell(dst, src *storage.EncVec, i int) {
	switch dst.Kind {
	case storage.KInt:
		dst.Ints = append(dst.Ints, intAt(src, i))
	case storage.KFloat:
		dst.Floats = append(dst.Floats, src.Floats[i])
	default:
		dst.Strs = append(dst.Strs, strAt(src, i))
	}
}

// appendZero appends a zero cell to the raw vector v.
func appendZero(v *storage.EncVec) {
	switch v.Kind {
	case storage.KInt:
		v.Ints = append(v.Ints, 0)
	case storage.KFloat:
		v.Floats = append(v.Floats, 0)
	default:
		v.Strs = append(v.Strs, "")
	}
}

// rawVecs views the columns of batch b as raw-encoded vectors, reusing
// dst.
func rawVecs(dst []storage.EncVec, b *storage.Batch) []storage.EncVec {
	dst = dst[:0]
	for i := range b.Cols {
		c := &b.Cols[i]
		dst = append(dst, storage.EncVec{Kind: c.Kind, Ints: c.Ints, Floats: c.Floats, Strs: c.Strs})
	}
	return dst
}
