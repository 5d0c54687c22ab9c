package storage

// Partition migration snapshots (cross-process rebalancing). A snapshot
// is taken and installed inside a drained quiet window — the submission
// plane guarantees no transaction or scan touches the partition — so
// plain row copies are a consistent image.

// SnapshotRows returns a deep copy of the table's live contents split
// the way they must be re-inserted: keyed rows (with their primary
// keys, so point lookups resolve identically after install) and keyless
// heap rows (Append-only tables such as TPC-C history).
func (t *Table) SnapshotRows() (keys []Key, rows []Row, keyless []Row) {
	keyed := make(map[int32]bool, t.pk.Len())
	for i, used := range t.pk.used {
		if !used {
			continue
		}
		slot := t.pk.slots[i]
		keys = append(keys, t.pk.keys[i])
		rows = append(rows, t.rows[slot].Clone())
		keyed[slot] = true
	}
	for slot, r := range t.rows {
		if r != nil && !keyed[int32(slot)] {
			keyless = append(keyless, r.Clone())
		}
	}
	return keys, rows, keyless
}

// ResetRows empties the table in place: row heap, primary and secondary
// indexes, the columnar mirror and its dictionaries.
// The schema and index definitions survive, so a snapshot installs into
// the same table identity. Dictionaries reset with the chunks: no chunk
// survives to reference old codes, and the incoming contents rebuild
// both from scratch.
func (t *Table) ResetRows() {
	t.rows = nil
	t.pk = NewHashIndex(64)
	t.live = 0
	for _, idx := range t.secondary {
		idx.tree = NewBTree()
	}
	t.colChunks = nil
	t.dicts = nil
}

// InstallRows replaces the table's contents with a snapshot taken by
// SnapshotRows on another node.
func (t *Table) InstallRows(keys []Key, rows []Row, keyless []Row) error {
	t.ResetRows()
	t.Reserve(len(keys) + len(keyless))
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
