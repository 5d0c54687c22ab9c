package olap

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"
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
// A slot is a packed combination of dictionary codes (the dense path,
// initDense), an index the key map hands out in first-seen order
// (slotOf), or, in a sink merging partials, the rank of its group among
// the merged runs (mergeRuns), so that slot order is group order. Every
// layout reads back as one list of vectors (viewOf), so the partial
// batch and the result gather column by column. Tables recycle through
// groupTables when their operator closes.
//
// Group order is the ascending order of the group values (compareKeys),
// the order ORDER BY gives the group columns: a scan emits its partial
// rows in it (ordered), a sink merges the partials as ordered runs
// (mergeRuns) and sorts a fold of raw rows into it (sorted).
type groupTable struct {
	aggs []aggVec
	rows []int64

	keyVecs []storage.EncVec
	index   map[string]int32 // group key (appendKeyVal) -> slot
	keyBuf  []byte

	// A merging sink's ordered runs (mergeRuns): the partial batches,
	// kept until the stream closes and freed by release; each run's head
	// row; the runs whose heads hold the least key; and per run, the slot
	// each of its rows merged into.
	runs  []*storage.Batch
	heads []int
	ties  []int
	runAt [][]int32

	// Dense layout: slot = Σ code[g] × stride[g] over the group columns,
	// keyVecs are dictionary-coded with one code per slot.
	dense  bool
	dims   []int
	stride []int

	// Scratch: per-row slots, an identity selection, and the view.
	at   []int32
	sel  []int32
	view []storage.EncVec
}

// aggVec is one aggregate's accumulator vector (raw-encoded, of the
// accumulator's kind); COUNT has none and reads the table's rows.
type aggVec struct {
	fn   AggFn
	vals storage.EncVec
	seen []bool    // MIN/MAX
	avg  []float64 // AVG: the finalized means (viewOf)
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
		a.vals.Reset(storage.KInt)
		a.seen = a.seen[:0]
	}
	for k := range g.keyVecs {
		g.keyVecs[k].Reset(storage.KInt)
	}
	clear(g.index)
	for i, b := range g.runs {
		storage.FreeBatch(b)
		g.runs[i] = nil
	}
	g.runs = g.runs[:0]
	g.dense = false
	clear(g.view) // drop the dictionary and vector references
	g.view = g.view[:0]
	groupTables.Put(g)
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
		g.keyVecs[k].Reset(src[c].Kind)
	}
}

// slotOf returns the slot of the group whose key is row i of the source
// columns cols, adding the group when it is new: one map probe per row,
// on a scan's keyed fold and a sink's fold of raw rows (a merging sink
// finds its groups by mergeRuns instead). No grouping columns means one
// global slot.
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
	g.keyBuf = g.keyBuf[:0]
	for _, c := range cols {
		g.keyBuf = appendKeyVal(g.keyBuf, src[c].Value(i))
	}
	if s, ok := g.index[string(g.keyBuf)]; ok {
		return s
	}
	s := g.addSlot()
	g.index[string(g.keyBuf)] = s
	for k, c := range cols {
		appendCell(&g.keyVecs[k], &src[c], i)
	}
	return s
}

// slots sets g.at to the slot (slotOf) of each row sel of the source
// columns cols, and returns it.
func (g *groupTable) slots(src []storage.EncVec, cols []int, sel []int32) []int32 {
	at := g.at[:0]
	for _, i := range sel {
		at = append(at, g.slotOf(src, cols, int(i)))
	}
	g.at = at
	return at
}

// appendKeyVal appends one value's group-key encoding to buf: the key
// map's key, not an order. An int is its eight bytes, a float its bits
// (every NaN one group, as compareKeys has it), a string its length and
// bytes. Kinds are fixed per column, so distinct rows of group values
// never share a key.
func appendKeyVal(buf []byte, v storage.Value) []byte {
	switch v.Kind {
	case storage.KInt:
		return binary.BigEndian.AppendUint64(buf, uint64(v.I))
	case storage.KFloat:
		f := v.F
		if math.IsNaN(f) {
			f = math.NaN()
		}
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return append(binary.AppendUvarint(buf, uint64(len(v.S))), v.S...)
}

// compareKeys orders row i of the key columns a and row j of the key
// columns b (as many, of the same kinds) by value, column by column: an
// int or a float by number, a string by its bytes. That is the group
// order. The key map keeps a float's 0 and -0 as two groups, so -0 sorts
// first; NaNs are one group, before every number.
func compareKeys(a []storage.EncVec, i int, b []storage.EncVec, j int) int {
	for k := range a {
		x, y := &a[k], &b[k]
		var c int
		switch x.Kind {
		case storage.KInt:
			c = cmp.Compare(intAt(x, i), intAt(y, j))
		case storage.KFloat:
			p, q := x.Floats[i], y.Floats[j]
			if c = cmp.Compare(p, q); c == 0 && p == 0 {
				// -0's bits exceed 0's.
				c = cmp.Compare(math.Float64bits(q), math.Float64bits(p))
			}
		default:
			c = strings.Compare(strAt(x, i), strAt(y, j))
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// mergeRuns gives every row of the ordered runs g.runs the slot of its
// group, by a k-way merge: each run leads with nKeys key columns and
// holds each key once, in group order. One sweep over the run heads per
// group finds the least key and every head equal to it (k-1
// comparisons); the group takes the next slot and the key cells, and
// each of those heads records the slot in its run's g.runAt and
// advances. Slots come out in group order, so the merged table needs no
// sort. Empty runs take no part.
func (g *groupTable) mergeRuns(nKeys int) {
	runs := g.runs
	g.heads = zeroed(g.heads, len(runs))
	for len(g.runAt) < len(runs) {
		g.runAt = append(g.runAt, nil)
	}
	// One raw string key column, the common grouping, compares inline.
	strs := nKeys == 1
	for r, b := range runs {
		g.runAt[r] = slices.Grow(g.runAt[r][:0], b.Len())
		if r == 0 {
			for k := range nKeys {
				g.keyVecs[k].Reset(b.Cols[k].Kind)
			}
		}
		strs = strs && b.Cols[0].Kind == storage.KStr && b.Cols[0].Enc == storage.EncRaw
	}
	heads := g.heads
	for {
		// The least head so far (its key columns and row), and the runs
		// whose heads equal it.
		var least []storage.EncVec
		row, ties := 0, g.ties[:0]
		for r, b := range runs {
			h := heads[r]
			if h == b.Len() {
				continue
			}
			c := -1
			switch {
			case len(ties) == 0:
			case strs:
				c = strings.Compare(b.Cols[0].Strs[h], least[0].Strs[row])
			default:
				c = compareKeys(b.Cols[:nKeys], h, least, row)
			}
			if c > 0 {
				continue
			}
			if c < 0 {
				ties = ties[:0]
				least, row = b.Cols[:nKeys], h
			}
			ties = append(ties, r)
		}
		g.ties = ties
		if len(ties) == 0 {
			return
		}
		s := g.addSlot()
		for k := range least {
			appendCell(&g.keyVecs[k], &least[k], row)
		}
		for _, r := range ties {
			g.runAt[r] = append(g.runAt[r], s)
			heads[r]++
		}
	}
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
		kv.Reset(c.Cols[col].Kind)
		kv.Enc, kv.Dict = storage.EncDict, c.Cols[col].Dict
		kv.Codes = slices.Grow(kv.Codes, slots)[:slots]
		for p := range kv.Codes {
			kv.Codes[p] = uint32(p / g.stride[k] % g.dims[k])
		}
	}
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
	for p := 0; p < n; p++ {
		if g.rows[p] == 0 {
			continue
		}
		g.keyBuf = g.keyBuf[:0]
		for k := range g.keyVecs {
			g.keyBuf = appendKeyVal(g.keyBuf, g.keyVecs[k].Value(p))
		}
		g.index[string(g.keyBuf)] = int32(p)
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

// ordered returns the slots any row was folded into (touched) in group
// order: the rows of a scan's partial, from a dense, keyed or migrated
// table alike.
func (g *groupTable) ordered() []int32 {
	return g.sortSlots(g.touched())
}

// sorted returns every slot of a sink's table (all of them groups) in
// group order. Only a fold of raw rows sorts: a merged table's slots are
// already in group order (mergeRuns).
func (g *groupTable) sorted() []int32 {
	g.sel = identity(g.sel, len(g.rows))
	if len(g.runs) > 0 {
		return g.sel
	}
	return g.sortSlots(g.sel)
}

// sortSlots sorts the slots sel by their groups' values (compareKeys).
func (g *groupTable) sortSlots(sel []int32) []int32 {
	slices.SortFunc(sel, func(a, b int32) int { return compareKeys(g.keyVecs, int(a), g.keyVecs, int(b)) })
	return sel
}

// viewOf lays the table out as vectors for Batch.AppendRows: the key
// columns, then each aggregate's columns. In partial layout COUNT is
// the row count and AVG its sum and the row count. Finalized, AVG is the
// sum divided by the count (the sum, 0, for an empty group), computed
// into scratch: the table itself is only read, so a merged table a
// Worker keeps finalizes again for the next sink.
func (g *groupTable) viewOf(final bool) []storage.EncVec {
	view := append(g.view[:0], g.keyVecs...)
	counts := storage.EncVec{Kind: storage.KInt, Ints: g.rows}
	for j := range g.aggs {
		a := &g.aggs[j]
		switch {
		case a.fn == AggCount:
			view = append(view, counts)
		case a.fn == AggAvg && final:
			a.avg = append(a.avg[:0], a.vals.Floats...)
			for s, n := range g.rows {
				if n != 0 {
					a.avg[s] /= float64(n)
				}
			}
			view = append(view, storage.EncVec{Kind: storage.KFloat, Floats: a.avg})
		case a.fn == AggAvg:
			view = append(view, a.vals, counts)
		default:
			view = append(view, a.vals)
		}
	}
	g.view = view
	return view
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
