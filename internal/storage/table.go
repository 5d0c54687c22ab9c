package storage

import (
	"fmt"
	"math"
	"slices"
)

// Row heap: every table stores its rows in pages, one page per column
// chunk (colstore.go), so page ci backs exactly the slots of ColChunk(ci)
// and heap growth appends a page instead of copying the heap. A page is
// column-major: numeric cells are 8-byte words (an int as its bits, a
// float as math.Float64bits), one run of words per numeric column, and
// string cells sit in the same layout in a separate string page — the
// only part of the heap that holds pointers, so the garbage collector
// never scans the cells of a table without string columns. A per-page
// live bitmap marks the slots that hold a row; a delete clears its bit
// (a tombstone) and slots are never reused.
//
// Value stays the API currency. Field decodes a cell by its schema kind
// and UpdateAt encodes one. Insert and Append copy the row in, so callers
// may pass a stack or scratch row; Get returns a fresh copy. Scan and
// ScanRange decode each row into one per-table scratch row that is valid
// only during the callback; Range hands out slots only. Words carry no kind, so every
// write is checked against the schema: Insert returns an error on a
// wrong arity or kind, and Append and UpdateAt panic on one.

// KeyFunc derives an index key from a row.
type KeyFunc func(Row) Key

// SecondaryIndex is an ordered index over a table.
type SecondaryIndex struct {
	Name  string
	tree  *BTree
	keyOf KeyFunc
}

// Table is a row heap plus a blocked primary index (hashidx.go: 16
// neighbouring keys share one cache line of slots) and optional ordered
// secondary indexes. Tables are not safe for concurrent use: each engine
// guarantees single ownership (one AC owns a partition; the simulation
// runtime is single-threaded).
//
// Secondary indexes are maintained on insert and delete. Updating a
// column that participates in a secondary key is not supported (TPC-C
// never does); UpdateAt panics if asked to.
type Table struct {
	Schema *Schema

	pages     []*page
	n         int32   // slots handed out: the next insert lands at slot n
	lane      []int32 // per column: its run in words (numeric) or strs (string)
	nNum      int     // numeric columns: runs of words per page
	nStr      int     // string columns: runs of strs per page
	scan      Row     // scratch row the Scan and ScanRange callbacks see
	keyRow    Row     // scratch row secondary keys derive from
	pk        *HashIndex
	secondary []*SecondaryIndex
	secCols   ColSet // columns used by any secondary key
	live      int
	colChunks []colChunk // lazily built columnar mirror (colstore.go)
	dicts     []*Dict    // per-column dictionaries (dict.go), lazy
	stamp     uint64     // encode stamp counter (colstore.go); never reset
}

// page holds the cells of one chunk's slots, column-major: numeric lane
// l of in-page row off is words[l<<ColChunkShift|off], string lane l is
// strs[l<<ColChunkShift|off].
type page struct {
	words []uint64
	strs  []string
	live  [ColChunkRows / 64]uint64
}

func (p *page) isLive(off int) bool { return p.live[off>>6]&(1<<(off&63)) != 0 }

// NewTable returns an empty table for schema. It panics on a schema
// wider than maxCols: the columnar mirror tracks one ColSet bit a column.
func NewTable(schema *Schema) *Table {
	n := schema.NumCols()
	if n > maxCols {
		panic(fmt.Sprintf("storage: table %s has %d columns, at most %d", schema.Name, n, maxCols))
	}
	t := &Table{
		Schema: schema,
		lane:   make([]int32, n),
		scan:   make(Row, n),
		keyRow: make(Row, n),
		pk:     NewHashIndex(64),
	}
	for col, c := range schema.Cols {
		if c.Kind == KStr {
			t.lane[col] = int32(t.nStr)
			t.nStr++
		} else {
			t.lane[col] = int32(t.nNum)
			t.nNum++
		}
	}
	return t
}

// newPage allocates an empty page.
func (t *Table) newPage() *page {
	p := &page{}
	if t.nNum > 0 {
		p.words = make([]uint64, t.nNum<<ColChunkShift)
	}
	if t.nStr > 0 {
		p.strs = make([]string, t.nStr<<ColChunkShift)
	}
	return p
}

// get decodes column col of in-page row off.
func (t *Table) get(p *page, off, col int) Value {
	i := int(t.lane[col])<<ColChunkShift | off
	switch t.Schema.Cols[col].Kind {
	case KInt:
		return Int(int64(p.words[i]))
	case KFloat:
		return Float(math.Float64frombits(p.words[i]))
	default:
		return Str(p.strs[i])
	}
}

// set encodes v, whose kind the caller checked against the schema, into
// column col of in-page row off.
func (t *Table) set(p *page, off, col int, v Value) {
	i := int(t.lane[col])<<ColChunkShift | off
	switch v.Kind {
	case KInt:
		p.words[i] = uint64(v.I)
	case KFloat:
		p.words[i] = math.Float64bits(v.F)
	default:
		p.strs[i] = v.S
	}
}

// decode copies the row at slot into dst.
func (t *Table) decode(slot int32, dst Row) {
	p, off := t.pages[slot>>ColChunkShift], int(slot&(ColChunkRows-1))
	for col := range dst {
		dst[col] = t.get(p, off, col)
	}
}

// at returns the page and in-page offset of slot, panicking with a
// message unless the slot holds a live row.
func (t *Table) at(slot int32, op string) (*page, int) {
	if slot < 0 || slot >= t.n {
		panic(fmt.Sprintf("storage: %s of slot %d out of range in %s (%d slots)", op, slot, t.Schema.Name, t.n))
	}
	p, off := t.pages[slot>>ColChunkShift], int(slot&(ColChunkRows-1))
	if !p.isLive(off) {
		panic(fmt.Sprintf("storage: %s of tombstoned slot %d in %s", op, slot, t.Schema.Name))
	}
	return p, off
}

// check reports a row whose arity or cell kinds do not match the schema.
func (t *Table) check(row Row, op string) error {
	if len(row) != len(t.Schema.Cols) {
		return fmt.Errorf("storage: arity mismatch %s %s: row has %d values, schema %d",
			op, t.Schema.Name, len(row), len(t.Schema.Cols))
	}
	for col, c := range t.Schema.Cols {
		if k := row[col].Kind; k != c.Kind {
			return fmt.Errorf("storage: kind mismatch %s %s: column %s is %v, value is %v",
				op, t.Schema.Name, c.Name, c.Kind, k)
		}
	}
	return nil
}

// put copies a checked row into the next slot and maintains the
// secondary indexes; the caller's row is not retained.
func (t *Table) put(row Row) int32 {
	slot := t.n
	ci, off := int(slot>>ColChunkShift), int(slot&(ColChunkRows-1))
	if ci == len(t.pages) {
		t.pages = append(t.pages, t.newPage())
	}
	p := t.pages[ci]
	for col := range row {
		t.set(p, off, col, row[col])
	}
	p.live[off>>6] |= 1 << (off & 63)
	t.n++
	t.live++
	if len(t.secondary) > 0 {
		t.decode(slot, t.keyRow)
		for _, idx := range t.secondary {
			idx.tree.Put(idx.keyOf(t.keyRow), slot)
		}
	}
	t.staleChunk(slot)
	return slot
}

// kill tombstones the live row at slot: its secondary keys go, its
// string cells are released, and its live bit is cleared.
func (t *Table) kill(slot int32) {
	p, off := t.pages[slot>>ColChunkShift], int(slot&(ColChunkRows-1))
	if len(t.secondary) > 0 {
		t.decode(slot, t.keyRow)
		for _, idx := range t.secondary {
			idx.tree.Delete(idx.keyOf(t.keyRow))
		}
	}
	for l := 0; l < t.nStr; l++ {
		p.strs[l<<ColChunkShift|off] = ""
	}
	p.live[off>>6] &^= 1 << (off & 63)
	t.live--
	t.staleChunk(slot)
}

// AddIndex registers (and builds) an ordered secondary index. cols lists
// the columns the key derives from, enforcing the no-update rule.
func (t *Table) AddIndex(name string, keyOf KeyFunc, cols ...string) *SecondaryIndex {
	idx := &SecondaryIndex{Name: name, tree: NewBTree(), keyOf: keyOf}
	for _, c := range cols {
		t.secCols |= 1 << t.Schema.MustCol(c)
	}
	t.Scan(func(slot int32, r Row) bool {
		idx.tree.Put(keyOf(r), slot)
		return true
	})
	t.secondary = append(t.secondary, idx)
	return idx
}

// Index returns the named secondary index, or nil.
func (t *Table) Index(name string) *SecondaryIndex {
	for _, idx := range t.secondary {
		if idx.Name == name {
			return idx
		}
	}
	return nil
}

// Insert copies row in under key. A row whose arity or cell kinds do not
// match the schema, or a duplicate key, is an error, and writes nothing.
func (t *Table) Insert(key Key, row Row) (int32, error) {
	if err := t.check(row, "inserting into"); err != nil {
		return 0, err
	}
	if !t.pk.insert(key, t.n) { // put lands the row at slot t.n
		return 0, fmt.Errorf("storage: duplicate key %v in %s", key, t.Schema.Name)
	}
	return t.put(row), nil
}

// Append copies a keyless row into the heap: no primary-key entry, no
// duplicate check — the append-only fast path for tables that are never
// point-looked-up or deleted (TPC-C history). Secondary indexes, if any,
// are still maintained. It panics on a row that does not match the
// schema. Returns the slot (for AbortAppend).
func (t *Table) Append(row Row) int32 {
	if err := t.check(row, "appending to"); err != nil {
		panic(err.Error())
	}
	return t.put(row)
}

// AbortAppend tombstones a row added by Append (transaction rollback).
// A slot already tombstoned is left alone.
func (t *Table) AbortAppend(slot int32) {
	if p := t.pages[slot>>ColChunkShift]; p.isLive(int(slot & (ColChunkRows - 1))) {
		t.kill(slot)
	}
}

// Lookup resolves key to a row slot.
func (t *Table) Lookup(key Key) (int32, bool) { return t.pk.Get(key) }

// Get returns a copy of the row under key.
func (t *Table) Get(key Key) (Row, bool) {
	slot, ok := t.pk.Get(key)
	if !ok {
		return nil, false
	}
	row := make(Row, len(t.Schema.Cols))
	t.decode(slot, row)
	return row, true
}

// Field returns one cell. It panics on a slot that holds no live row.
func (t *Table) Field(slot int32, col int) Value {
	p, off := t.at(slot, "read")
	return t.get(p, off, col)
}

// UpdateAt overwrites one cell, returning the previous value (for undo).
// It panics on an indexed column, a value of the wrong kind, or a slot
// that holds no live row.
func (t *Table) UpdateAt(slot int32, col int, v Value) Value {
	if t.secCols&(1<<col) != 0 {
		panic(fmt.Sprintf("storage: update of indexed column %s.%s",
			t.Schema.Name, t.Schema.Cols[col].Name))
	}
	if k := t.Schema.Cols[col].Kind; v.Kind != k {
		panic(fmt.Sprintf("storage: kind mismatch updating %s.%s: column is %v, value is %v",
			t.Schema.Name, t.Schema.Cols[col].Name, k, v.Kind))
	}
	p, off := t.at(slot, "update")
	old := t.get(p, off, col)
	t.set(p, off, col, v)
	t.staleCol(slot, col)
	return old
}

// Delete tombstones the row under key.
func (t *Table) Delete(key Key) bool {
	slot, ok := t.pk.Get(key)
	if !ok {
		return false
	}
	t.kill(slot)
	t.pk.Delete(key)
	return true
}

// Rows returns the number of live rows.
func (t *Table) Rows() int { return t.live }

// Scan visits every live row in slot order; fn returning false stops.
// The row is the table's scratch row: valid only during the call, and
// not to be mutated.
func (t *Table) Scan(fn func(slot int32, row Row) bool) {
	t.ScanRange(0, math.MaxInt, fn)
}

// ScanRange visits up to n live rows starting at heap slot `from` in slot
// order. It returns the slot to resume from and whether the table end was
// reached — the chunking primitive for cooperative scans that interleave
// with other work (the baseline's OLAP chunks, AnyDB's streaming scans).
// Rows added during the call are not visited. The row passed to fn is
// the table's scratch row, as in Scan.
func (t *Table) ScanRange(from int32, n int, fn func(slot int32, row Row) bool) (int32, bool) {
	end, i, visited := t.n, from, 0
	for ; i < end && visited < n; i++ {
		if !t.pages[i>>ColChunkShift].isLive(int(i & (ColChunkRows - 1))) {
			continue
		}
		visited++
		t.decode(i, t.scan)
		if !fn(i, t.scan) {
			return i + 1, i+1 >= end
		}
	}
	return i, i >= end
}

// Range visits the slots of rows with lo <= indexKey < hi via the named
// secondary index in key order; fn reads the cells it needs with Field.
// It decodes no row: a page is column-major, so a whole row costs one
// cache line per column, and an index walk (TPC-C's payment by last
// name) wants only the slots.
func (t *Table) Range(index string, lo, hi Key, fn func(slot int32) bool) {
	idx := t.Index(index)
	if idx == nil {
		panic(fmt.Sprintf("storage: no index %q on %s", index, t.Schema.Name))
	}
	idx.tree.Range(lo, hi, func(_ Key, slot int32) bool { return fn(slot) })
}

// Keys returns all live primary keys in sorted order — a helper for
// comparing engine end states in tests.
func (t *Table) Keys() []Key {
	keys := make([]Key, 0, t.pk.Len())
	t.pk.each(func(k Key, _ int32) { keys = append(keys, k) })
	slices.Sort(keys)
	return keys
}
