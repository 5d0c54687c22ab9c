package storage

import (
	"fmt"
	"sort"
)

// KeyFunc derives an index key from a row.
type KeyFunc func(Row) Key

// SecondaryIndex is an ordered index over a table.
type SecondaryIndex struct {
	Name  string
	tree  *BTree
	keyOf KeyFunc
}

// Table is a row heap plus a primary hash index and optional ordered
// secondary indexes. Tables are not safe for concurrent use: each engine
// guarantees single ownership (one AC owns a partition; the simulation
// runtime is single-threaded).
//
// Secondary indexes are maintained on insert and delete. Updating a
// column that participates in a secondary key is not supported (TPC-C
// never does); UpdateAt panics if asked to.
type Table struct {
	Schema *Schema

	rows      []Row // slot = position; nil = tombstone
	pk        *HashIndex
	secondary []*SecondaryIndex
	secCols   map[int]bool // columns used by any secondary key
	live      int
	colChunks []colChunk // lazily built columnar mirror (colstore.go)
	dicts     []*Dict    // per-column dictionaries (dict.go), lazy
}

// Reserve pre-sizes the row heap for at least n slots, so steady-state
// ingest appends land in place instead of growth-reallocating the heap
// (the catalog's cardinality hints feed this at population time).
func (t *Table) Reserve(n int) {
	if n <= cap(t.rows) {
		return
	}
	grown := make([]Row, len(t.rows), n)
	copy(grown, t.rows)
	t.rows = grown
}

// NewTable returns an empty table for schema. It panics on a schema
// wider than maxCols: the columnar mirror tracks one ColSet bit a column.
func NewTable(schema *Schema) *Table {
	if n := schema.NumCols(); n > maxCols {
		panic(fmt.Sprintf("storage: table %s has %d columns, at most %d", schema.Name, n, maxCols))
	}
	return &Table{
		Schema:  schema,
		pk:      NewHashIndex(64),
		secCols: make(map[int]bool),
	}
}

// AddIndex registers (and builds) an ordered secondary index. cols lists
// the columns the key derives from, enforcing the no-update rule.
func (t *Table) AddIndex(name string, keyOf KeyFunc, cols ...string) *SecondaryIndex {
	idx := &SecondaryIndex{Name: name, tree: NewBTree(), keyOf: keyOf}
	for _, c := range cols {
		t.secCols[t.Schema.MustCol(c)] = true
	}
	for slot, r := range t.rows {
		if r != nil {
			idx.tree.Put(keyOf(r), int32(slot))
		}
	}
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

// Insert adds row under key. Duplicate keys are an error.
func (t *Table) Insert(key Key, row Row) (int32, error) {
	if _, dup := t.pk.Get(key); dup {
		return 0, fmt.Errorf("storage: duplicate key %v in %s", key, t.Schema.Name)
	}
	if len(row) != t.Schema.NumCols() {
		return 0, fmt.Errorf("storage: arity mismatch inserting into %s: row has %d values, schema %d",
			t.Schema.Name, len(row), t.Schema.NumCols())
	}
	slot := int32(len(t.rows))
	t.rows = append(t.rows, row)
	t.pk.Put(key, slot)
	for _, idx := range t.secondary {
		idx.tree.Put(idx.keyOf(row), slot)
	}
	t.live++
	t.staleChunk(slot)
	return slot, nil
}

// Append adds a keyless row to the heap: no primary-key entry, no
// duplicate check — the append-only fast path for tables that are never
// point-looked-up or deleted (TPC-C history). Secondary indexes, if any,
// are still maintained. Returns the slot (for AbortAppend).
func (t *Table) Append(row Row) int32 {
	if len(row) != t.Schema.NumCols() {
		panic(fmt.Sprintf("storage: arity mismatch appending to %s: row has %d values, schema %d",
			t.Schema.Name, len(row), t.Schema.NumCols()))
	}
	slot := int32(len(t.rows))
	t.rows = append(t.rows, row)
	for _, idx := range t.secondary {
		idx.tree.Put(idx.keyOf(row), slot)
	}
	t.live++
	t.staleChunk(slot)
	return slot
}

// AbortAppend tombstones a row added by Append (transaction rollback).
func (t *Table) AbortAppend(slot int32) {
	row := t.rows[slot]
	if row == nil {
		return
	}
	for _, idx := range t.secondary {
		idx.tree.Delete(idx.keyOf(row))
	}
	t.rows[slot] = nil
	t.live--
	t.staleChunk(slot)
}

// Lookup resolves key to a row slot.
func (t *Table) Lookup(key Key) (int32, bool) { return t.pk.Get(key) }

// Get returns a copy of the row under key.
func (t *Table) Get(key Key) (Row, bool) {
	slot, ok := t.pk.Get(key)
	if !ok {
		return nil, false
	}
	return t.rows[slot].Clone(), true
}

// RowAt returns the row at slot without copying. Callers must not mutate
// it; use UpdateAt.
func (t *Table) RowAt(slot int32) Row { return t.rows[slot] }

// Field returns one cell.
func (t *Table) Field(slot int32, col int) Value { return t.rows[slot][col] }

// UpdateAt overwrites one cell, returning the previous value (for undo).
func (t *Table) UpdateAt(slot int32, col int, v Value) Value {
	if t.secCols[col] {
		panic(fmt.Sprintf("storage: update of indexed column %s.%s",
			t.Schema.Name, t.Schema.Cols[col].Name))
	}
	row := t.rows[slot]
	old := row[col]
	row[col] = v
	t.staleCol(slot, col)
	return old
}

// Delete tombstones the row under key.
func (t *Table) Delete(key Key) bool {
	slot, ok := t.pk.Get(key)
	if !ok {
		return false
	}
	row := t.rows[slot]
	for _, idx := range t.secondary {
		idx.tree.Delete(idx.keyOf(row))
	}
	t.pk.Delete(key)
	t.rows[slot] = nil
	t.live--
	t.staleChunk(slot)
	return true
}

// Rows returns the number of live rows.
func (t *Table) Rows() int { return t.live }

// Scan visits every live row in slot order; fn returning false stops.
// The row is passed by reference: do not mutate or retain it.
func (t *Table) Scan(fn func(slot int32, row Row) bool) {
	for i, r := range t.rows {
		if r == nil {
			continue
		}
		if !fn(int32(i), r) {
			return
		}
	}
}

// ScanRange visits up to n live rows starting at heap slot `from` in slot
// order. It returns the slot to resume from and whether the table end was
// reached — the chunking primitive for cooperative scans that interleave
// with other work (the baseline's OLAP chunks, AnyDB's streaming scans).
func (t *Table) ScanRange(from int32, n int, fn func(slot int32, row Row) bool) (int32, bool) {
	i := int(from)
	visited := 0
	for ; i < len(t.rows) && visited < n; i++ {
		r := t.rows[i]
		if r == nil {
			continue
		}
		visited++
		if !fn(int32(i), r) {
			return int32(i + 1), i+1 >= len(t.rows)
		}
	}
	return int32(i), i >= len(t.rows)
}

// Range visits rows with lo <= indexKey < hi via the named secondary
// index in key order.
func (t *Table) Range(index string, lo, hi Key, fn func(slot int32, row Row) bool) {
	idx := t.Index(index)
	if idx == nil {
		panic(fmt.Sprintf("storage: no index %q on %s", index, t.Schema.Name))
	}
	idx.tree.Range(lo, hi, func(_ Key, slot int32) bool {
		return fn(slot, t.rows[slot])
	})
}

// Keys returns all live primary keys in sorted order — a helper for
// comparing engine end states in tests.
func (t *Table) Keys() []Key {
	keys := make([]Key, 0, t.live)
	for i, used := range t.pk.used {
		if used {
			keys = append(keys, t.pk.keys[i])
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}
