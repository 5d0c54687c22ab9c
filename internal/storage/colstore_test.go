package storage

import (
	"fmt"
	"testing"
)

func colTestSchema() *Schema {
	return NewSchema("t",
		Column{Name: "id", Kind: KInt},
		Column{Name: "name", Kind: KStr},
	)
}

func chunkInt(c *EncChunk, row, col int) int64  { return c.Cols[col].Value(row).I }
func chunkStr(c *EncChunk, row, col int) string { return c.Cols[col].Value(row).S }

func TestColChunkBuildsAndCaches(t *testing.T) {
	tb := NewTable(colTestSchema())
	for i := 0; i < ColChunkRows+10; i++ {
		if _, err := tb.Insert(Key(i), Row{Int(int64(i)), Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.NumColChunks(); got != 2 {
		t.Fatalf("NumColChunks = %d, want 2", got)
	}
	c0 := tb.ColChunk(0)
	if c0.Len() != ColChunkRows {
		t.Fatalf("chunk 0 has %d rows, want %d", c0.Len(), ColChunkRows)
	}
	if again := tb.ColChunk(0); again != c0 {
		t.Fatal("clean chunk was rebuilt")
	}
	c1 := tb.ColChunk(1)
	if c1.Len() != 10 {
		t.Fatalf("chunk 1 has %d rows, want 10", c1.Len())
	}
	if got := chunkInt(c1, 0, 0); got != int64(ColChunkRows) {
		t.Fatalf("chunk 1 first id = %d, want %d", got, ColChunkRows)
	}
}

// invSchema is TestColChunkInvalidation's table: two int columns, two
// string columns and a float, so a fetch can name a strict subset of
// each kind.
func invSchema() *Schema {
	return NewSchema("inv",
		Column{Name: "id", Kind: KInt},
		Column{Name: "grp", Kind: KInt},
		Column{Name: "name", Kind: KStr},
		Column{Name: "note", Kind: KStr},
		Column{Name: "amt", Kind: KFloat},
	)
}

const invID, invGrp, invName, invNote, invAmt = 0, 1, 2, 3, 4

// invRow is row i of the invalidation table; grp(i) picks the grp value.
func invRow(i int, grp func(int) int64) Row {
	return Row{Int(int64(i)), Int(grp(i)), Str(fmt.Sprintf("n%d", i%9)),
		Str(fmt.Sprintf("note-%d", i)), Float(float64(i) / 4)}
}

func cols(c ...int) ColSet {
	var s ColSet
	for _, col := range c {
		s |= 1 << col
	}
	return s
}

// checkChunk compares the columns of need in chunk ci against the row
// heap, row by live row, and the chunk's length against the live slots.
func checkChunk(t *testing.T, tb *Table, ci int, need ColSet, c *EncChunk) {
	t.Helper()
	lo := int32(ci << ColChunkShift)
	i := 0
	tb.ScanRange(lo, ColChunkRows, func(slot int32, row Row) bool {
		if slot >= lo+ColChunkRows {
			return false
		}
		for col := range row {
			if need&(1<<col) == 0 {
				continue
			}
			if got := c.Cols[col].Value(i); !got.Equal(row[col]) {
				t.Fatalf("chunk %d row %d col %d = %v, heap %v", ci, i, col, got, row[col])
			}
		}
		i++
		return true
	})
	if c.Len() != i {
		t.Fatalf("chunk %d Len = %d, heap has %d live rows", ci, c.Len(), i)
	}
}

// TestColChunkInvalidation drives write/fetch sequences over the
// columnar mirror. Every fetch is read back against the row heap for
// the columns it named; each step then pins the freshness state or the
// encodings it must leave behind.
func TestColChunkInvalidation(t *testing.T) {
	all := allCols(5)
	seq := func(i int) int64 { return int64(1000 + i) } // > the int dict cap: FoR
	type step struct {
		name  string
		write func(tb *Table)
		ci    int
		need  ColSet
		after func(t *testing.T, tb *Table, c *EncChunk)
	}
	cases := []struct {
		name  string
		rows  int
		grp   func(int) int64
		steps []step
	}{
		{
			name: "one-column update then full fetch", rows: 100, grp: seq,
			steps: []step{
				{name: "build", need: all},
				{name: "update", write: func(tb *Table) { tb.UpdateAt(42, invAmt, Float(-1)) }, need: all,
					after: func(t *testing.T, tb *Table, c *EncChunk) {
						if got := c.Cols[invAmt].Floats[42]; got != -1 {
							t.Fatalf("amt[42] = %v, want -1", got)
						}
					}},
				{name: "stale only its column", write: func(tb *Table) { tb.UpdateAt(7, invName, Str("fresh")) },
					need: cols(invID), after: func(t *testing.T, tb *Table, c *EncChunk) {
						if c := tb.colChunks[0]; c.fresh != all&^cols(invName) || !c.slotsOK {
							t.Fatalf("fresh %b slotsOK %v, want %b true", c.fresh, c.slotsOK, all&^cols(invName))
						}
					}},
				{name: "re-encode it", need: all},
			},
		},
		{
			name: "subset fetch leaves unread strings unbuilt", rows: 300, grp: func(i int) int64 { return int64(i % 5) },
			steps: []step{
				{name: "ints only", need: cols(invID, invGrp), after: func(t *testing.T, tb *Table, c *EncChunk) {
					if tb.Dict(invName) != nil || tb.Dict(invNote) != nil {
						t.Fatal("an unread string column built a dictionary")
					}
					if c.Cols[invGrp].Enc != EncDict {
						t.Fatalf("grp enc = %d, want EncDict", c.Cols[invGrp].Enc)
					}
				}},
				{name: "write the unread column", write: func(tb *Table) { tb.UpdateAt(3, invNote, Str("x")) },
					need: cols(invID, invGrp), after: func(t *testing.T, tb *Table, c *EncChunk) {
						if tb.Dict(invNote) != nil {
							t.Fatal("note dictionary built by a fetch that does not read it")
						}
					}},
				{name: "now read it", need: cols(invNote, invAmt), after: func(t *testing.T, tb *Table, c *EncChunk) {
					if tb.Dict(invNote) == nil || c.Cols[invNote].Enc != EncDict {
						t.Fatal("note not dictionary-encoded once read")
					}
					if tb.Dict(invName) != nil {
						t.Fatal("name dictionary built though never read")
					}
				}},
			},
		},
		{
			name: "empty read set after insert and delete", rows: 100, grp: seq,
			steps: []step{
				{name: "build", need: all},
				{name: "insert", write: func(tb *Table) {
					if _, err := tb.Insert(Key(100), invRow(100, seq)); err != nil {
						panic(err)
					}
				}, need: 0, after: func(t *testing.T, tb *Table, c *EncChunk) {
					if tb.colChunks[0].fresh != 0 {
						t.Fatalf("fresh = %b after an empty fetch, want 0", tb.colChunks[0].fresh)
					}
				}},
				{name: "delete", write: func(tb *Table) { tb.Delete(Key(0)) }, need: 0},
				{name: "append", write: func(tb *Table) { tb.Append(invRow(101, seq)) }, need: 0},
				{name: "abort append", write: func(tb *Table) { tb.AbortAppend(101) }, need: 0},
				{name: "full", need: all, after: func(t *testing.T, tb *Table, c *EncChunk) {
					if got := c.Cols[invID].Value(0).I; got != 1 {
						t.Fatalf("first id = %d after deleting 0, want 1", got)
					}
				}},
			},
		},
		{
			name: "update leaves the FoR window", rows: maxIntDictCodes + 100, grp: seq,
			steps: []step{
				{name: "build", need: all, after: func(t *testing.T, tb *Table, c *EncChunk) {
					if c.Cols[invGrp].Enc != EncFoR || c.Cols[invID].Enc != EncFoR || c.Cols[invName].Enc != EncDict {
						t.Fatalf("encodings id %d grp %d name %d, want FoR FoR Dict",
							c.Cols[invID].Enc, c.Cols[invGrp].Enc, c.Cols[invName].Enc)
					}
				}},
				{name: "widen grp", write: func(tb *Table) { tb.UpdateAt(5, invGrp, Int(1<<40)) }, need: all,
					after: func(t *testing.T, tb *Table, c *EncChunk) {
						if c.Cols[invGrp].Enc != EncRaw {
							t.Fatalf("grp enc = %d past the uint32 window, want EncRaw", c.Cols[invGrp].Enc)
						}
						if c.Cols[invID].Enc != EncFoR || c.Cols[invID].Ref != 0 || c.Cols[invName].Enc != EncDict {
							t.Fatal("an untouched column lost its encoding")
						}
					}},
			},
		},
		{
			// Chunk 0's grp codes 0..599 fit the dictionary; chunk 1 brings
			// 600 more and seals it mid-encode.
			name: "dictionary seals between fetches", rows: ColChunkRows + 700,
			grp: func(i int) int64 { return int64(i>>ColChunkShift*600 + i%600) },
			steps: []step{
				{name: "chunk 0", need: cols(invGrp, invName), after: func(t *testing.T, tb *Table, c *EncChunk) {
					if c.Cols[invGrp].Enc != EncDict {
						t.Fatalf("chunk 0 grp enc = %d, want EncDict", c.Cols[invGrp].Enc)
					}
				}},
				{name: "chunk 1 seals", ci: 1, need: cols(invGrp), after: func(t *testing.T, tb *Table, c *EncChunk) {
					if !tb.Dict(invGrp).Sealed() || c.Cols[invGrp].Enc != EncFoR {
						t.Fatal("chunk 1 did not seal the grp dictionary and fall back to FoR")
					}
				}},
				{name: "chunk 0 again", need: cols(invGrp, invName), after: func(t *testing.T, tb *Table, c *EncChunk) {
					if c.Cols[invGrp].Enc != EncDict {
						t.Fatal("a fresh column was re-encoded")
					}
				}},
				{name: "chunk 0 grp written", write: func(tb *Table) { tb.UpdateAt(9, invGrp, Int(5)) },
					need: cols(invGrp, invName), after: func(t *testing.T, tb *Table, c *EncChunk) {
						if c.Cols[invGrp].Enc != EncFoR || c.Cols[invName].Enc != EncDict {
							t.Fatalf("encodings grp %d name %d, want FoR Dict", c.Cols[invGrp].Enc, c.Cols[invName].Enc)
						}
					}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTable(invSchema())
			for i := range tc.rows {
				if _, err := tb.Insert(Key(i), invRow(i, tc.grp)); err != nil {
					t.Fatal(err)
				}
			}
			for _, st := range tc.steps {
				if st.write != nil {
					st.write(tb)
				}
				c := tb.ColChunkCols(st.ci, st.need)
				checkChunk(t, tb, st.ci, st.need, c)
				if st.after != nil {
					st.after(t, tb, c)
				}
				if t.Failed() {
					t.Fatalf("after step %q", st.name)
				}
			}
		})
	}
}

// TestNewTableRejectsWideSchema: the mirror's freshness is one ColSet
// bit a column, so a schema past maxCols is refused at table creation.
func TestNewTableRejectsWideSchema(t *testing.T) {
	wide := make([]Column, maxCols+1)
	for i := range wide {
		wide[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: KInt}
	}
	NewTable(NewSchema("max", wide[:maxCols]...)) // the widest accepted
	defer func() {
		if recover() == nil {
			t.Fatal("NewTable accepted a schema wider than maxCols")
		}
	}()
	NewTable(NewSchema("wide", wide...))
}

func TestColChunkDirtyBeforeFirstBuild(t *testing.T) {
	// Writes before any ColChunk call must not panic or grow state.
	tb := NewTable(colTestSchema())
	for i := 0; i < 10; i++ {
		tb.Append(Row{Int(int64(i)), Str("x")})
	}
	if len(tb.colChunks) != 0 {
		t.Fatalf("colChunks grew to %d before any ColChunk call", len(tb.colChunks))
	}
	if got := tb.ColChunk(0).Len(); got != 10 {
		t.Fatalf("ColChunk(0) has %d rows, want 10", got)
	}
}

// TestEncChunkEncodings pins which encoding each column shape gets:
// low-cardinality ints and strings dictionary-encode, high-cardinality
// ints with a narrow range fall back to frame-of-reference, and a range
// wider than uint32 stays raw.
func TestEncChunkEncodings(t *testing.T) {
	schema := NewSchema("enc",
		Column{Name: "lo_int", Kind: KInt},  // 4 distinct -> dict
		Column{Name: "seq", Kind: KInt},     // > dict cap, narrow range -> FoR
		Column{Name: "wide", Kind: KInt},    // > uint32 range -> raw
		Column{Name: "state", Kind: KStr},   // few distinct -> dict
		Column{Name: "ratio", Kind: KFloat}, // floats always raw
	)
	tb := NewTable(schema)
	n := maxIntDictCodes + 100
	for i := 0; i < n; i++ {
		tb.Append(Row{
			Int(int64(i % 4)),
			Int(int64(1000 + i)),
			Int(int64(i) * (1 << 33)),
			Str(fmt.Sprintf("s%d", i%7)),
			Float(float64(i) / 3),
		})
	}
	c := tb.ColChunk(0)
	wantEnc := []EncKind{EncDict, EncFoR, EncRaw, EncDict, EncRaw}
	for col, want := range wantEnc {
		if got := c.Cols[col].Enc; got != want {
			t.Errorf("col %d (%s): enc = %d, want %d", col, schema.Cols[col].Name, got, want)
		}
	}
	if c.Cols[1].Ref != 1000 {
		t.Errorf("FoR ref = %d, want 1000", c.Cols[1].Ref)
	}
	// Every decoded cell must equal the heap row, whatever the encoding.
	for i := 0; i < c.Len(); i++ {
		for col := range schema.Cols {
			if got, want := c.Cols[col].Value(i), tb.Field(int32(i), col); !got.Equal(want) {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, col, got, want)
			}
		}
	}
}

// TestDictSealFallback drives an int column past the dictionary cap:
// the dictionary seals permanently, the rebuilt chunk falls back to a
// non-dictionary encoding, and previously assigned codes stay
// decodable.
func TestDictSealFallback(t *testing.T) {
	schema := NewSchema("seal", Column{Name: "v", Kind: KInt})
	tb := NewTable(schema)
	for i := 0; i < maxIntDictCodes/2; i++ {
		tb.Append(Row{Int(int64(i))})
	}
	c := tb.ColChunk(0)
	if c.Cols[0].Enc != EncDict {
		t.Fatalf("below cap: enc = %d, want EncDict", c.Cols[0].Enc)
	}
	d := tb.Dict(0)
	if d == nil || d.Sealed() {
		t.Fatal("dictionary missing or sealed below cap")
	}

	// Push past the cap; the rebuild must seal and fall back.
	for i := maxIntDictCodes / 2; i < maxIntDictCodes+10; i++ {
		tb.Append(Row{Int(int64(i))})
	}
	c = tb.ColChunk(0)
	if c.Cols[0].Enc == EncDict {
		t.Fatal("past cap: chunk still dictionary-encoded")
	}
	if !d.Sealed() {
		t.Fatal("dictionary did not seal past cap")
	}
	// Sealed dictionaries keep their codes decodable and lookupable.
	if got := d.DecodeInt(7); got != 7 {
		t.Fatalf("DecodeInt(7) = %d after seal", got)
	}
	if _, ok := d.LookupInt(7); !ok {
		t.Fatal("LookupInt lost a pre-seal code after sealing")
	}
	for i := 0; i < c.Len(); i++ {
		if got := chunkInt(c, i, 0); got != int64(i) {
			t.Fatalf("row %d = %d after fallback", i, got)
		}
	}
}

// TestDictRoundTripUnderMutation interleaves chunk reads with table
// mutation: every write invalidates the chunk, the dictionary grows
// incrementally across rebuilds, and decoded contents always match the
// heap.
func TestDictRoundTripUnderMutation(t *testing.T) {
	tb := NewTable(colTestSchema())
	for i := 0; i < 300; i++ {
		if _, err := tb.Insert(Key(i), Row{Int(int64(i % 5)), Str(fmt.Sprintf("name-%d", i%11))}); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		c := tb.ColChunk(0)
		i := 0
		tb.Scan(func(_ int32, row Row) bool {
			if !c.Cols[0].Value(i).Equal(row[0]) || !c.Cols[1].Value(i).Equal(row[1]) {
				t.Fatalf("row %d: chunk (%v,%v) != heap (%v,%v)",
					i, c.Cols[0].Value(i), c.Cols[1].Value(i), row[0], row[1])
			}
			i++
			return true
		})
		if i != c.Len() {
			t.Fatalf("chunk rows %d != live rows %d", c.Len(), i)
		}
	}
	check()
	dictLen := tb.Dict(1).Len()

	// Updates introducing new strings grow the dictionary; old codes in
	// untouched positions remain valid.
	for i := 0; i < 300; i += 17 {
		slot, _ := tb.Lookup(Key(i))
		tb.UpdateAt(slot, 1, Str(fmt.Sprintf("mut-%d", i)))
		check()
	}
	if got := tb.Dict(1).Len(); got <= dictLen {
		t.Fatalf("dictionary did not grow under mutation: %d -> %d", dictLen, got)
	}

	// Deletes and inserts churn the slot layout under the same codes.
	for i := 0; i < 300; i += 23 {
		tb.Delete(Key(i))
		check()
	}
	for i := 300; i < 350; i++ {
		if _, err := tb.Insert(Key(i), Row{Int(int64(i)), Str("late")}); err != nil {
			t.Fatal(err)
		}
		check()
	}
}
