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

func TestColChunkInvalidation(t *testing.T) {
	tb := NewTable(colTestSchema())
	for i := 0; i < 100; i++ {
		if _, err := tb.Insert(Key(i), Row{Int(int64(i)), Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.ColChunk(0).Len(); got != 100 {
		t.Fatalf("initial build has %d rows, want 100", got)
	}

	// An insert into the cached chunk's range must trigger a rebuild.
	if _, err := tb.Insert(Key(100), Row{Int(100), Str("y")}); err != nil {
		t.Fatal(err)
	}
	if got := tb.ColChunk(0).Len(); got != 101 {
		t.Fatalf("after insert: %d rows, want 101", got)
	}

	// Updates are reflected.
	slot, _ := tb.Lookup(Key(42))
	tb.UpdateAt(slot, 1, Str("updated"))
	if got := chunkStr(tb.ColChunk(0), 42, 1); got != "updated" {
		t.Fatalf("after update: cell = %q, want %q", got, "updated")
	}

	// Deletes tombstone the slot out of the rebuilt chunk.
	tb.Delete(Key(0))
	if got := tb.ColChunk(0).Len(); got != 100 {
		t.Fatalf("after delete: %d rows, want 100", got)
	}
	if got := chunkInt(tb.ColChunk(0), 0, 0); got != 1 {
		t.Fatalf("after delete: first id = %d, want 1", got)
	}

	// AbortAppend likewise.
	slot2 := tb.Append(Row{Int(999), Str("z")})
	if got := tb.ColChunk(0).Len(); got != 101 {
		t.Fatalf("after append: %d rows, want 101", got)
	}
	tb.AbortAppend(slot2)
	if got := tb.ColChunk(0).Len(); got != 100 {
		t.Fatalf("after abort: %d rows, want 100", got)
	}
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
		row := tb.RowAt(int32(i))
		for col := range schema.Cols {
			if got := c.Cols[col].Value(i); !got.Equal(row[col]) {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, col, got, row[col])
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
