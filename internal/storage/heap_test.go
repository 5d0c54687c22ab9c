package storage

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// The typed row heap against a map model. FuzzTableHeap decodes its
// input into a sequence of writes — Insert, Append, UpdateAt, Delete,
// AbortAppend, bulk appends across page boundaries and a snapshot
// reinstall — and after every step reads the table back through every
// path (Field, Get, Scan, ScanRange, the secondary index's Range and
// ColChunkCols) against the model.

// heapSchema has one column of each kind plus the two indexed int
// columns the secondary key derives from.
func heapSchema() *Schema {
	return NewSchema("heap",
		Column{"seq", KInt}, // indexed: unique per row
		Column{"grp", KInt}, // indexed: 0..3
		Column{"f", KFloat},
		Column{"s", KStr},
		Column{"n", KInt},
	)
}

const heapGroups = 4

func heapKeyOf(r Row) Key { return MakeKey(0, int(r[1].I), r[0].I) }

// Cell values the heap must carry bit-exactly: NaN payloads (quiet,
// signalling, negative), −0.0, the int extremes, empty and 1 kB strings.
var (
	heapFloats = []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000000), math.SmallestNonzeroFloat64, math.MaxFloat64}
	heapInts    = []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64, 1 << 40, -(1 << 33)}
	heapStrings = []string{"", "a", "ü-ß", strings.Repeat("k", 1024), "note"}
)

// sameValue is bit equality: Value.Equal says NaN != NaN and 0 == −0.
func sameValue(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case KInt:
		return a.I == b.I
	default:
		return a.S == b.S
	}
}

func rowsEqual(a, b Row) bool {
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// heapInput reads op codes and operands off the fuzz input; past its
// end every byte reads 0.
type heapInput struct {
	b []byte
	i int
}

func (in *heapInput) more() bool { return in.i < len(in.b) }

func (in *heapInput) byte() int {
	if in.i >= len(in.b) {
		return 0
	}
	in.i++
	return int(in.b[in.i-1])
}

// heapModel is the expected table: live rows by slot, the slot of each
// key, and the slots of rows that were deleted or aborted.
type heapModel struct {
	rows    map[int32]Row
	keySlot map[Key]int32
	keyless map[int32]bool
	dead    []int32
	next    int32 // the slot the next insert lands at
	seq     int64
}

// row builds a fresh row whose cells the choices pick from the value
// pools; seq is unique.
func (m *heapModel) row(pick func() int) Row {
	m.seq++
	return Row{Int(m.seq), Int(int64(pick() % heapGroups)),
		Float(heapFloats[pick()%len(heapFloats)]),
		Str(heapStrings[pick()%len(heapStrings)]),
		Int(heapInts[pick()%len(heapInts)])}
}

func FuzzTableHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 0, 1, 2, 3, 4, 2, 0, 2, 1, 3, 0, 4, 7, 8, 5, 6, 9})
	for seed := uint64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x48))
		b := make([]byte, 64<<(seed%5))
		for i := range b {
			b[i] = byte(r.Uint32())
		}
		f.Add(b)
	}
	// Bulk appends past the first page, deletes, a reinstall, and an
	// update of a tombstoned slot.
	f.Add([]byte{6, 250, 6, 250, 6, 250, 6, 250, 6, 250, 6, 250, 6, 250, 6, 250, 6, 250,
		0, 3, 1, 2, 3, 9, 3, 0, 0, 1, 0, 1, 1, 2, 3, 4, 4, 0, 7, 0, 5, 8, 2, 1, 2, 3, 4, 9, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := NewTable(heapSchema())
		tab.AddIndex("by_grp", heapKeyOf, "seq", "grp")
		m := &heapModel{rows: map[int32]Row{}, keySlot: map[Key]int32{}, keyless: map[int32]bool{}}
		in := &heapInput{b: data}
		for step := 0; in.more() && step < 64; step++ {
			op := in.byte() % 10
			heapStep(t, tab, m, in, op)
			checkHeap(t, tab, m, fmt.Sprintf("step %d (op %d)", step, op))
		}
	})
}

// heapStep applies one decoded write to the table and the model.
func heapStep(t *testing.T, tab *Table, m *heapModel, in *heapInput, op int) {
	t.Helper()
	switch op {
	case 0, 1: // keyed insert; a key already present must fail
		key := MakeKey(1, 0, int64(in.byte()%64))
		row := m.row(in.byte)
		want := row.Clone()
		slot, err := tab.Insert(key, row)
		if _, dup := m.keySlot[key]; dup {
			if err == nil {
				t.Fatalf("duplicate key %v inserted", key)
			}
			return
		}
		if err != nil {
			t.Fatalf("insert %v: %v", key, err)
		}
		if slot != m.next {
			t.Fatalf("insert landed at slot %d, want %d", slot, m.next)
		}
		// The heap copied the row: the caller's slice is scratch.
		row[2], row[3], row[4] = Float(-1), Str("mutated"), Int(-7)
		m.rows[slot], m.keySlot[key] = want, slot
		m.next++
	case 2: // keyless append; the caller's row is scratch here too
		row := m.row(in.byte)
		slot := tab.Append(row)
		m.rows[slot], m.keyless[slot] = row.Clone(), true
		row[3] = Str("mutated")
		m.next++
	case 3: // update a live slot's unindexed cell
		slot, ok := m.pick(in)
		if !ok {
			return
		}
		col := 2 + in.byte()%3
		v := m.row(in.byte)[col]
		old := tab.UpdateAt(slot, col, v)
		if !sameValue(old, m.rows[slot][col]) {
			t.Fatalf("UpdateAt(%d, %d) returned %v, model %v", slot, col, old, m.rows[slot][col])
		}
		m.rows[slot][col] = v
	case 4: // delete by key, present or not
		key := MakeKey(1, 0, int64(in.byte()%64))
		slot, present := m.keySlot[key]
		if got := tab.Delete(key); got != present {
			t.Fatalf("Delete(%v) = %v, model %v", key, got, present)
		}
		if present {
			delete(m.rows, slot)
			delete(m.keySlot, key)
			m.dead = append(m.dead, slot)
		}
	case 5: // abort an append; a second abort of the same slot is a no-op
		for slot := range m.keyless {
			tab.AbortAppend(slot)
			tab.AbortAppend(slot)
			delete(m.rows, slot)
			delete(m.keyless, slot)
			m.dead = append(m.dead, slot)
			break
		}
	case 6: // bulk append, crossing page boundaries
		// The cells come from a generator, not the input, so one op byte
		// and one count byte add up to 512 rows. Once the heap is into its
		// second page the op does nothing: every step checks the whole
		// table, and a small table keeps each input fast to fuzz.
		if m.next > ColChunkRows {
			return
		}
		r := rand.New(rand.NewPCG(uint64(m.seq), 0x48))
		for n := 8 * (1 + in.byte()%64); n > 0; n-- {
			row := m.row(r.Int)
			slot := tab.Append(row)
			m.rows[slot], m.keyless[slot] = row.Clone(), true
			m.next++
		}
	case 7: // snapshot, reset, reinstall: keyed rows first, then keyless
		keys, rows, keyless := tab.SnapshotRows()
		for i, k := range keys {
			if !rowsEqual(rows[i], m.rows[m.keySlot[k]]) {
				t.Fatalf("snapshot row of %v = %v, model %v", k, rows[i], m.rows[m.keySlot[k]])
			}
		}
		var wantKeyless []Row
		for _, s := range m.sorted() {
			if m.keyless[s] {
				wantKeyless = append(wantKeyless, m.rows[s])
			}
		}
		if len(keys) != len(m.keySlot) || !slices.EqualFunc(keyless, wantKeyless, rowsEqual) {
			t.Fatalf("snapshot has %d keys and %d keyless rows, model %d and %d",
				len(keys), len(keyless), len(m.keySlot), len(wantKeyless))
		}
		tab.ResetRows()
		if err := tab.InstallRows(keys, rows, keyless); err != nil {
			t.Fatal(err)
		}
		m.rows, m.keySlot, m.keyless, m.dead = map[int32]Row{}, map[Key]int32{}, map[int32]bool{}, nil
		for i, k := range keys {
			m.rows[int32(i)], m.keySlot[k] = rows[i], int32(i)
		}
		for i, r := range keyless {
			slot := int32(len(keys) + i)
			m.rows[slot], m.keyless[slot] = r, true
		}
		m.next = int32(len(keys) + len(keyless))
	case 8: // an update of a tombstoned slot panics with a message
		if len(m.dead) == 0 {
			return
		}
		slot := m.dead[in.byte()%len(m.dead)]
		msg := panicMessage(func() { tab.UpdateAt(slot, 2, Float(1)) })
		if !strings.Contains(msg, "tombstoned slot") {
			t.Fatalf("UpdateAt of tombstoned slot %d: panic %q", slot, msg)
		}
	case 9: // writes of the wrong kind are refused and change nothing
		bad := m.row(in.byte)
		bad[2] = Int(1)
		if _, err := tab.Insert(MakeKey(2, 0, m.seq), bad); err == nil || !strings.Contains(err.Error(), "kind mismatch") {
			t.Fatalf("Insert of a wrong-kind row: %v", err)
		}
		if msg := panicMessage(func() { tab.Append(bad) }); !strings.Contains(msg, "kind mismatch") {
			t.Fatalf("Append of a wrong-kind row: panic %q", msg)
		}
		if slot, ok := m.pick(in); ok {
			if msg := panicMessage(func() { tab.UpdateAt(slot, 3, Int(1)) }); !strings.Contains(msg, "kind mismatch") {
				t.Fatalf("UpdateAt with a wrong-kind value: panic %q", msg)
			}
		}
	}
}

// pick returns a live slot chosen by the input.
func (m *heapModel) pick(in *heapInput) (int32, bool) {
	if len(m.rows) == 0 {
		return 0, false
	}
	slots := m.sorted()
	return slots[(in.byte()<<8|in.byte())%len(slots)], true
}

// sorted returns the model's live slots in order.
func (m *heapModel) sorted() []int32 {
	slots := make([]int32, 0, len(m.rows))
	for s := range m.rows {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	return slots
}

// panicMessage runs fn and returns what it panicked with, or "" if it
// returned.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// checkHeap reads the whole table back through every read path.
func checkHeap(t *testing.T, tab *Table, m *heapModel, where string) {
	t.Helper()
	if tab.Rows() != len(m.rows) {
		t.Fatalf("%s: Rows() = %d, model %d", where, tab.Rows(), len(m.rows))
	}
	slots := m.sorted()
	for _, s := range slots {
		for col, want := range m.rows[s] {
			if got := tab.Field(s, col); !sameValue(got, want) {
				t.Fatalf("%s: Field(%d, %d) = %v, model %v", where, s, col, got, want)
			}
		}
	}
	for key, s := range m.keySlot {
		if got, ok := tab.Lookup(key); !ok || got != s {
			t.Fatalf("%s: Lookup(%v) = %d, %v; model slot %d", where, key, got, ok, s)
		}
		got, ok := tab.Get(key)
		if !ok || !rowsEqual(got, m.rows[s]) {
			t.Fatalf("%s: Get(%v) = %v, model %v", where, key, got, m.rows[s])
		}
		got[3] = Str("scribbled") // Get returns a copy
		if tab.Field(s, 3).S == "scribbled" {
			t.Fatalf("%s: Get aliased the heap", where)
		}
	}

	var scanned []int32
	tab.Scan(func(s int32, r Row) bool {
		if want, ok := m.rows[s]; !ok || !rowsEqual(r, want) {
			t.Fatalf("%s: Scan slot %d = %v, model %v (live %v)", where, s, r, want, ok)
		}
		scanned = append(scanned, s)
		return true
	})
	if !slices.Equal(scanned, slots) {
		t.Fatalf("%s: Scan visited %v, model %v", where, scanned, slots)
	}
	var ranged []int32
	for from, done := int32(0), false; !done; {
		from, done = tab.ScanRange(from, 7, func(s int32, r Row) bool {
			if !rowsEqual(r, m.rows[s]) {
				t.Fatalf("%s: ScanRange slot %d = %v, model %v", where, s, r, m.rows[s])
			}
			ranged = append(ranged, s)
			return true
		})
	}
	if !slices.Equal(ranged, slots) {
		t.Fatalf("%s: ScanRange visited %v, model %v", where, ranged, slots)
	}

	for g := 0; g < heapGroups; g++ {
		var want, got []int32
		for _, s := range slots {
			if m.rows[s][1].I == int64(g) {
				want = append(want, s)
			}
		}
		slices.SortFunc(want, func(a, b int32) int { return int(m.rows[a][0].I - m.rows[b][0].I) })
		tab.Range("by_grp", MakeKey(0, g, 0), MakeKey(0, g+1, 0), func(s int32) bool {
			got = append(got, s)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Range group %d visited %v, model %v", where, g, got, want)
		}
	}

	if want := (int(m.next) + ColChunkRows - 1) / ColChunkRows; tab.NumColChunks() != want {
		t.Fatalf("%s: NumColChunks = %d, want %d", where, tab.NumColChunks(), want)
	}
	i := 0
	for ci := 0; ci < tab.NumColChunks(); ci++ {
		// Fetch a varying subset, so columns go stale and are re-encoded
		// at different times.
		need := ColSet(1)<<(ci%5) | 1<<2 | ColSet(len(slots)%3)<<3
		c := tab.ColChunkCols(ci, need)
		for r := 0; r < c.Len(); r, i = r+1, i+1 {
			if i >= len(slots) || slots[i]>>ColChunkShift != int32(ci) {
				t.Fatalf("%s: chunk %d has %d rows, model disagrees at row %d", where, ci, c.Len(), r)
			}
			for col := range tab.Schema.Cols {
				if need&(1<<col) != 0 && !sameValue(c.Cols[col].Value(r), m.rows[slots[i]][col]) {
					t.Fatalf("%s: chunk %d row %d col %d = %v, model %v", where, ci, r, col,
						c.Cols[col].Value(r), m.rows[slots[i]][col])
				}
			}
		}
	}
	if i != len(slots) {
		t.Fatalf("%s: chunks hold %d rows, model %d", where, i, len(slots))
	}
}

// BenchmarkHeapWrite is the OLTP write path on the typed heap: a keyed
// insert of a stack row, a keyless append, and a read-modify-write of
// one cell through Field and UpdateAt. It must report 0 allocs/op: the
// caller's row is copied in, and page and index growth amortize below
// one allocation per op.
func BenchmarkHeapWrite(b *testing.B) {
	orders := NewTable(NewSchema("orders",
		Column{"o_id", KInt}, Column{"o_c_id", KInt}, Column{"o_amount", KFloat}))
	hist := NewTable(NewSchema("history",
		Column{"h_c_id", KInt}, Column{"h_w_id", KInt}, Column{"h_amount", KFloat}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := int64(i)
		slot, err := orders.Insert(MakeKey(0, 1, id), Row{Int(id), Int(id % 3000), Float(1.5)})
		if err != nil {
			b.Fatal(err)
		}
		hist.Append(Row{Int(id % 3000), Int(0), Float(10)})
		orders.UpdateAt(slot, 2, Float(orders.Field(slot, 2).F+1))
	}
}
