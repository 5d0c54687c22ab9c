package storage

// UndoLog collects inverse operations for one transaction so an abort can
// restore the pre-image. Both engines use it: the DBx1000 baseline rolls
// back on no-wait lock conflicts; AnyDB rolls back on logical aborts
// (e.g. new-order's 1% invalid item).
//
// Entries apply in reverse order, so overlapping updates to the same cell
// restore correctly.
type UndoLog struct {
	entries []undoEntry
}

type undoKind uint8

const (
	undoUpdate undoKind = iota
	undoInsert
	undoAppend
)

type undoEntry struct {
	kind  undoKind
	table *Table
	key   Key // inserts
	slot  int32
	col   int32
	old   Value
}

// Len returns the number of recorded operations.
func (u *UndoLog) Len() int { return len(u.entries) }

// next returns a pointer to the next free entry, extending within
// capacity when possible. Writing fields through the pointer (instead of
// appending a composite literal) keeps the ~70-byte undoEntry out of
// duffcopy on the per-update logging path; the profile showed those
// struct copies as the bulk of duffcopy time.
func (u *UndoLog) next() *undoEntry {
	n := len(u.entries)
	if n < cap(u.entries) {
		u.entries = u.entries[:n+1]
	} else {
		u.entries = append(u.entries, undoEntry{})
	}
	return &u.entries[n]
}

// LogUpdate records the pre-image of a cell update.
func (u *UndoLog) LogUpdate(t *Table, slot int32, col int, old Value) {
	e := u.next()
	e.kind = undoUpdate
	e.table = t
	e.key = 0
	e.slot = slot
	e.col = int32(col)
	e.old = old
}

// LogInsert records an insert for reversal.
func (u *UndoLog) LogInsert(t *Table, key Key) {
	e := u.next()
	e.kind = undoInsert
	e.table = t
	e.key = key
	e.slot = 0
	e.col = 0
	e.old = Value{}
}

// LogAppend records a keyless append (Table.Append) for reversal.
func (u *UndoLog) LogAppend(t *Table, slot int32) {
	e := u.next()
	e.kind = undoAppend
	e.table = t
	e.key = 0
	e.slot = slot
	e.col = 0
	e.old = Value{}
}

// Rollback applies the log in reverse and clears it. It returns the
// number of operations undone (the engines charge virtual time per op).
func (u *UndoLog) Rollback() int {
	n := len(u.entries)
	for i := n - 1; i >= 0; i-- {
		e := u.entries[i]
		switch e.kind {
		case undoUpdate:
			e.table.UpdateAt(e.slot, int(e.col), e.old)
		case undoInsert:
			e.table.Delete(e.key)
		case undoAppend:
			e.table.AbortAppend(e.slot)
		}
	}
	clear(u.entries)
	u.entries = u.entries[:0]
	return n
}

// Commit discards the log (nothing to undo anymore). The backing array
// is kept — a reused log allocates only until it has seen its largest
// transaction — but entries are cleared so no row images stay pinned.
func (u *UndoLog) Commit() {
	clear(u.entries)
	u.entries = u.entries[:0]
}
