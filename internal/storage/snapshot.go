package storage

import (
	"fmt"
	"slices"
)

// Partition migration snapshots (cross-process rebalancing). A snapshot
// is taken and installed inside a drained quiet window — the submission
// plane guarantees no transaction or scan touches the partition — so
// plain row copies are a consistent image.

// SnapshotRows returns a deep copy of the table's live contents split
// the way they must be re-inserted: keyed rows (with their primary
// keys, so point lookups resolve identically after install) and keyless
// heap rows (Append-only tables such as TPC-C history). Both come in
// heap-slot order, so an installed table keeps its source's row order
// and chunk order.
func (t *Table) SnapshotRows() (keys []Key, rows []Row, keyless []Row) {
	keyOf := make([]Key, t.n)
	keyed := make([]uint64, (t.n+63)/64)
	t.pk.each(func(k Key, slot int32) {
		keyOf[slot] = k
		keyed[slot>>6] |= 1 << (slot & 63)
	})
	keys = make([]Key, 0, t.pk.Len())
	rows = make([]Row, 0, t.pk.Len())
	t.Scan(func(slot int32, r Row) bool {
		if keyed[slot>>6]&(1<<(slot&63)) != 0 {
			keys = append(keys, keyOf[slot])
			rows = append(rows, r.Clone())
		} else {
			keyless = append(keyless, r.Clone())
		}
		return true
	})
	return keys, rows, keyless
}

// CheckRows reports whether a snapshot would install cleanly: one key
// per keyed row, no duplicate key, and every row of the schema's arity
// and cell kinds. It reads the snapshot only, so a caller can validate
// every table of a partition before resetting any of them.
func (t *Table) CheckRows(keys []Key, rows []Row, keyless []Row) error {
	if len(keys) != len(rows) {
		return fmt.Errorf("storage: snapshot of %s has %d keys for %d keyed rows", t.Schema.Name, len(keys), len(rows))
	}
	for _, r := range rows {
		if err := t.check(r, "installing into"); err != nil {
			return err
		}
	}
	for _, r := range keyless {
		if err := t.check(r, "installing into"); err != nil {
			return err
		}
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return fmt.Errorf("storage: snapshot of %s repeats key %v", t.Schema.Name, sorted[i])
		}
	}
	return nil
}

// ResetRows empties the table in place: row heap, primary and secondary
// indexes, the columnar mirror and its dictionaries.
// The schema and index definitions survive, so a snapshot installs into
// the same table identity. Dictionaries reset with the chunks: no chunk
// survives to reference old codes, and the incoming contents rebuild
// both from scratch. The encode stamp counter is kept, so every chunk of
// the new contents is stamped above anything stamped before.
func (t *Table) ResetRows() {
	t.pages, t.n = nil, 0
	t.pk = NewHashIndex(64)
	t.live = 0
	for _, idx := range t.secondary {
		idx.tree = NewBTree()
	}
	t.colChunks = nil
	t.dicts = nil
}

// InstallRows replaces the table's contents with a snapshot taken by
// SnapshotRows on another node. A snapshot CheckRows rejects leaves the
// table untouched.
func (t *Table) InstallRows(keys []Key, rows []Row, keyless []Row) error {
	if err := t.CheckRows(keys, rows, keyless); err != nil {
		return err
	}
	t.ResetRows()
	t.pk = NewHashIndex(len(keys))
	for i, k := range keys {
		if _, err := t.Insert(k, rows[i]); err != nil {
			return err
		}
	}
	for _, r := range keyless {
		t.Append(r)
	}
	return nil
}
