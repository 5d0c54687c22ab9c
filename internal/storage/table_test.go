package storage

import (
	"testing"
)

func custSchema() *Schema {
	return NewSchema("customer",
		Column{"c_id", KInt},
		Column{"c_last", KStr},
		Column{"c_balance", KFloat},
	)
}

func TestKeyPacking(t *testing.T) {
	k := MakeKey(305, 9, 123456789)
	if k.Warehouse() != 305 || k.District() != 9 || k.ID() != 123456789 {
		t.Fatalf("round trip failed: %v", k)
	}
	if MakeKey(1, 0, 0) <= MakeKey(0, 255, 1<<44-1) {
		t.Fatal("warehouse must dominate ordering")
	}
	if MakeKey(1, 2, 0) <= MakeKey(1, 1, 1<<44-1) {
		t.Fatal("district must dominate id ordering")
	}
}

func TestTableInsertGet(t *testing.T) {
	tab := NewTable(custSchema())
	key := MakeKey(1, 1, 42)
	slot, err := tab.Insert(key, Row{Int(42), Str("BARBAR"), Float(10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(key, Row{Int(42), Str("X"), Float(0)}); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if _, err := tab.Insert(MakeKey(1, 1, 43), Row{Int(43)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	row, ok := tab.Get(key)
	if !ok || row[1].S != "BARBAR" {
		t.Fatalf("Get = %v, %v", row, ok)
	}
	// Get must return a copy.
	row[1] = Str("MUTATED")
	if tab.Field(slot, 1).S != "BARBAR" {
		t.Fatal("Get aliased the heap row")
	}
}

func TestTableUpdateUndo(t *testing.T) {
	tab := NewTable(custSchema())
	key := MakeKey(1, 1, 1)
	slot, _ := tab.Insert(key, Row{Int(1), Str("OUGHT"), Float(100)})

	var undo UndoLog
	old := tab.UpdateAt(slot, 2, Float(250))
	undo.LogUpdate(tab, slot, 2, old)
	old2 := tab.UpdateAt(slot, 2, Float(300))
	undo.LogUpdate(tab, slot, 2, old2)

	if tab.Field(slot, 2).F != 300 {
		t.Fatalf("balance = %v, want 300", tab.Field(slot, 2))
	}
	if n := undo.Rollback(); n != 2 {
		t.Fatalf("Rollback undid %d ops, want 2", n)
	}
	if tab.Field(slot, 2).F != 100 {
		t.Fatalf("balance after rollback = %v, want 100", tab.Field(slot, 2))
	}
}

func TestUndoInsertRollback(t *testing.T) {
	tab := NewTable(custSchema())
	var undo UndoLog
	key := MakeKey(2, 3, 7)
	tab.Insert(key, Row{Int(7), Str("ABLE"), Float(0)})
	undo.LogInsert(tab, key)
	undo.Rollback()
	if _, ok := tab.Get(key); ok {
		t.Fatal("insert survived rollback")
	}
	if tab.Rows() != 0 {
		t.Fatalf("Rows = %d, want 0", tab.Rows())
	}
}

func TestUndoCommitClears(t *testing.T) {
	tab := NewTable(custSchema())
	slot, _ := tab.Insert(MakeKey(1, 1, 1), Row{Int(1), Str("A"), Float(1)})
	var undo UndoLog
	undo.LogUpdate(tab, slot, 2, Float(1))
	undo.Commit()
	if undo.Len() != 0 {
		t.Fatal("Commit left entries")
	}
	if undo.Rollback() != 0 {
		t.Fatal("Rollback after Commit undid something")
	}
}

func TestTableSecondaryIndex(t *testing.T) {
	tab := NewTable(custSchema())
	// Index by (last-name-number, c_id): TPC-C last names map to
	// 0..999, so pack into the district field of the key.
	lastNum := map[string]int{"AAA": 1, "BBB": 2, "CCC": 3}
	keyOf := func(r Row) Key { return MakeKey(lastNum[r[1].S], 0, r[0].I) }
	for i, last := range []string{"BBB", "AAA", "CCC", "AAA", "BBB"} {
		tab.Insert(MakeKey(1, 1, int64(i)), Row{Int(int64(i)), Str(last), Float(0)})
	}
	tab.AddIndex("by_last", keyOf, "c_last")

	var ids []int64
	tab.Range("by_last", MakeKey(1, 0, 0), MakeKey(2, 0, 0), func(slot int32) bool {
		ids = append(ids, tab.Field(slot, 0).I)
		return true
	})
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("AAA range = %v, want [1 3]", ids)
	}

	// Inserts after AddIndex are indexed too.
	tab.Insert(MakeKey(1, 1, 9), Row{Int(9), Str("AAA"), Float(0)})
	ids = ids[:0]
	tab.Range("by_last", MakeKey(1, 0, 0), MakeKey(2, 0, 0), func(slot int32) bool {
		ids = append(ids, tab.Field(slot, 0).I)
		return true
	})
	if len(ids) != 3 || ids[2] != 9 {
		t.Fatalf("after insert: %v", ids)
	}

	// Updating an indexed column must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("update of indexed column did not panic")
		}
	}()
	tab.UpdateAt(0, 1, Str("ZZZ"))
}

func TestTableDeleteAndScan(t *testing.T) {
	tab := NewTable(custSchema())
	for i := 0; i < 10; i++ {
		tab.Insert(MakeKey(1, 1, int64(i)), Row{Int(int64(i)), Str("X"), Float(0)})
	}
	if !tab.Delete(MakeKey(1, 1, 4)) {
		t.Fatal("Delete failed")
	}
	if tab.Delete(MakeKey(1, 1, 4)) {
		t.Fatal("double Delete succeeded")
	}
	seen := 0
	tab.Scan(func(_ int32, r Row) bool {
		if r[0].I == 4 {
			t.Fatal("tombstoned row visited")
		}
		seen++
		return true
	})
	if seen != 9 || tab.Rows() != 9 {
		t.Fatalf("seen=%d Rows=%d, want 9", seen, tab.Rows())
	}
	keys := tab.Keys()
	if len(keys) != 9 {
		t.Fatalf("Keys len = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("Keys not sorted")
		}
	}
}

func TestValueCompareEqual(t *testing.T) {
	if Int(3).Compare(Int(5)) != -1 || Int(5).Compare(Int(3)) != 1 || Int(4).Compare(Int(4)) != 0 {
		t.Fatal("int compare broken")
	}
	if Float(1.5).Compare(Float(2.5)) != -1 {
		t.Fatal("float compare broken")
	}
	if Str("a").Compare(Str("b")) != -1 {
		t.Fatal("string compare broken")
	}
	if Int(1).Equal(Float(1)) {
		t.Fatal("cross-kind Equal true")
	}
	if !Str("x").Equal(Str("x")) {
		t.Fatal("string Equal broken")
	}
	if Int(7).String() != "7" || Str("q").String() != "q" {
		t.Fatal("String rendering broken")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := custSchema()
	if s.Col("c_last") != 1 || s.Col("nope") != -1 {
		t.Fatal("Col lookup broken")
	}
	if s.MustCol("c_id") != 0 {
		t.Fatal("MustCol broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCol on unknown column did not panic")
		}
	}()
	s.MustCol("nope")
}

func TestBatchRoundTrip(t *testing.T) {
	s := custSchema()
	b := NewBatch(s)
	b.AppendValues(Int(1), Str("AA"), Float(1.5))
	b.AppendValues(Int(2), Str("BB"), Float(2.5))
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	r := b.Row(1)
	if r[0].I != 2 || r[1].S != "BB" || r[2].F != 2.5 {
		t.Fatalf("Row(1) = %v", r)
	}
	if b.Value(0, 1).S != "AA" {
		t.Fatal("Value broken")
	}
	if b.Bytes() <= 0 {
		t.Fatal("Bytes not accounted")
	}
}

func TestConcatSchema(t *testing.T) {
	l := NewSchema("l", Column{"id", KInt}, Column{"x", KStr})
	r := NewSchema("r", Column{"id", KInt}, Column{"y", KFloat})
	j := ConcatSchema("j", l, r)
	if j.NumCols() != 4 {
		t.Fatalf("NumCols = %d", j.NumCols())
	}
	if j.Col("r.id") != 2 || j.Col("y") != 3 {
		t.Fatalf("collision renaming failed: %+v", j.Cols)
	}
}

func TestDatabasePartitions(t *testing.T) {
	db := NewDatabase(4, custSchema())
	if db.NumPartitions() != 4 {
		t.Fatal("partition count")
	}
	db.Partition(2).Table("customer").Insert(MakeKey(2, 1, 1), Row{Int(1), Str("A"), Float(0)})
	if db.Partition(2).Table("customer").Rows() != 1 {
		t.Fatal("insert into partition 2 missing")
	}
	if db.Partition(0).Table("customer").Rows() != 0 {
		t.Fatal("partitions share state")
	}
	if !db.Partition(0).HasTable("customer") || db.Partition(0).HasTable("x") {
		t.Fatal("HasTable broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range partition did not panic")
		}
	}()
	db.Partition(9)
}

func TestAnalyzeStats(t *testing.T) {
	tab := NewTable(custSchema())
	states := []string{"AA", "AB", "BA", "CA", "AC"}
	for i := 0; i < 1000; i++ {
		tab.Insert(MakeKey(1, 1, int64(i)),
			Row{Int(int64(i % 100)), Str(states[i%len(states)]), Float(float64(i))})
	}
	st := Analyze(tab)
	if st.Rows != 1000 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	cs := st.Col("c_id")
	if cs.MinI != 0 || cs.MaxI != 99 || cs.NDV != 100 {
		t.Fatalf("c_id stats = %+v", cs)
	}
	// Range selectivity ≈ 0.25 for [0,24].
	sel := st.SelectivityRange("c_id", 0, 24)
	if sel < 0.15 || sel > 0.35 {
		t.Fatalf("range selectivity = %g, want ≈0.25", sel)
	}
	if st.SelectivityRange("c_id", 200, 300) != 0 {
		t.Fatal("disjoint range selectivity not 0")
	}
	// 3 of 5 states start with "A".
	sel = st.SelectivityPrefix("c_last", "A")
	if sel < 0.4 || sel > 0.8 {
		t.Fatalf("prefix selectivity = %g, want ≈0.6", sel)
	}
	if eq := st.SelectivityEq("c_id"); eq != 0.01 {
		t.Fatalf("eq selectivity = %g, want 0.01", eq)
	}
}

func TestAnalyzeEmptyTable(t *testing.T) {
	st := Analyze(NewTable(custSchema()))
	if st.Rows != 0 {
		t.Fatal("rows on empty table")
	}
	if st.SelectivityRange("c_id", 0, 10) != 0.3 {
		t.Fatal("empty-table default selectivity")
	}
}

// TestAppendAndSlab covers the keyless append path history inserts ride:
// no primary-key entry, visible to scans and counts, reversible via
// AbortAppend. Every row is appended from one slab-carved scratch row,
// rewritten between appends: the heap copies rows in, so none aliases
// the scratch.
func TestAppendAndSlab(t *testing.T) {
	tab := NewTable(custSchema())
	var slab RowSlab
	r := slab.NewRow(3)
	for i := 0; i < 100; i++ {
		r[0], r[1], r[2] = Int(int64(i)), Str("APPEND"), Float(float64(i))
		tab.Append(r)
	}
	if tab.Rows() != 100 {
		t.Fatalf("Rows = %d", tab.Rows())
	}
	var sum int64
	tab.Scan(func(_ int32, r Row) bool {
		sum += r[0].I
		return true
	})
	if sum != 99*100/2 {
		t.Fatalf("scan sum = %d", sum)
	}
	// Appended rows must not alias the scratch: each keeps its own values.
	if tab.Field(0, 0).I != 0 || tab.Field(99, 0).I != 99 {
		t.Fatal("appended rows alias the caller's row")
	}
	// Appends have no primary-key entry; keyed lookups stay unaffected.
	if _, ok := tab.Lookup(MakeKey(0, 0, 0)); ok {
		t.Fatal("append registered a primary key")
	}
	// Keyed and keyless rows coexist.
	if _, err := tab.Insert(MakeKey(1, 1, 7), Row{Int(7), Str("KEYED"), Float(0)}); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 101 {
		t.Fatalf("Rows after mixed insert = %d", tab.Rows())
	}
	// Undo an append (rollback path).
	slot := tab.Append(Row{Int(999), Str("DOOMED"), Float(0)})
	var undo UndoLog
	undo.LogAppend(tab, slot)
	undo.Rollback()
	if tab.Rows() != 101 {
		t.Fatalf("Rows after aborted append = %d", tab.Rows())
	}
	found := false
	tab.Scan(func(_ int32, r Row) bool {
		if r[0].I == 999 {
			found = true
		}
		return true
	})
	if found {
		t.Fatal("aborted append still visible")
	}
}

// TestAppendMaintainsSecondaryIndexes: append-only tables with secondary
// indexes keep them consistent through Append/AbortAppend.
func TestAppendMaintainsSecondaryIndexes(t *testing.T) {
	tab := NewTable(custSchema())
	tab.AddIndex("by_id", func(r Row) Key { return MakeKey(0, 0, r[0].I) }, "c_id")
	slot := tab.Append(Row{Int(5), Str("X"), Float(0)})
	var hits int
	tab.Range("by_id", MakeKey(0, 0, 0), MakeKey(0, 0, 10), func(int32) bool {
		hits++
		return true
	})
	if hits != 1 {
		t.Fatalf("index hits = %d after append", hits)
	}
	tab.AbortAppend(slot)
	hits = 0
	tab.Range("by_id", MakeKey(0, 0, 0), MakeKey(0, 0, 10), func(int32) bool {
		hits++
		return true
	})
	if hits != 0 {
		t.Fatalf("index hits = %d after aborted append", hits)
	}
}
