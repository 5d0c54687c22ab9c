package olap

import (
	"math"
	"testing"

	"anydb/internal/storage"
)

// TestPrepareResolvesChunkEdges pins the chunk-level answers of prepare
// on an int column g = row/64, a dictionary in chunks 0–31 and
// frame-of-reference in chunks 32–34 (chunk k holds 32k..32k+31): a
// range that misses a chunk's encoding domain resolves to none (all for
// PredOut) and one that covers it to all, without a row loop.
func TestPrepareResolvesChunkEdges(t *testing.T) {
	db := storage.NewDatabase(1, storage.NewSchema("g", storage.Column{Name: "g", Kind: storage.KInt}))
	tab := db.Partition(0).Table("g")
	for i := 0; i < 35*storage.ColChunkRows; i++ {
		tab.Append(storage.Row{storage.Int(int64(i / 64))})
	}
	for ci := range tab.NumColChunks() { // the dictionary fills in chunk order
		tab.ColChunk(ci)
	}
	in := func(lo, hi int64) Predicate { return Predicate{Col: "g", Kind: PredIn, Lo: lo, Hi: hi} }
	out := func(lo, hi int64) Predicate { return Predicate{Col: "g", Kind: PredOut, Lo: lo, Hi: hi} }
	for _, tc := range []struct {
		chunk int
		pred  Predicate
		want  predMode
	}{
		{5, in(160, 160), modeCodes},                      // dictionary equality
		{5, out(160, 160), modeCodes},                     // ... and its complement
		{5, in(-5, -5), modeNone},                         // absent from the dictionary
		{5, out(-5, -5), modeAll},                         // ... and its complement
		{5, in(100, 1500), modeBits},                      // any other dictionary range
		{33, in(1056, 1056), modeCodes},                   // the chunk's minimum
		{33, in(math.MinInt64, 1055), modeNone},           // ends just below the chunk
		{33, out(math.MinInt64, 1055), modeAll},           // ... and its complement
		{32, in(1024+1<<32, math.MaxInt64), modeNone},     // starts past the delta domain
		{32, in(1024, 1024+math.MaxUint32), modeAll},      // covers the delta domain
		{32, in(math.MinInt64, math.MaxInt64), modeAll},   // the whole range
		{32, out(math.MinInt64, math.MaxInt64), modeNone}, // ... and its complement
		{32, in(1, 0), modeNone},                          // the empty range
		{32, out(1, 0), modeAll},                          // ... and its complement
		{32, in(1030, 1040), modeCodes},                   // a delta range
	} {
		chunk := tab.ColChunk(tc.chunk)
		if enc, want := chunk.Cols[0].Enc, map[bool]storage.EncKind{true: storage.EncDict, false: storage.EncFoR}[tc.chunk < 32]; enc != want {
			t.Fatalf("chunk %d encoding = %v, want %v", tc.chunk, enc, want)
		}
		p := compilePred(tab.Schema, tc.pred)
		p.prepare(chunk)
		if p.mode != tc.want {
			t.Errorf("chunk %d, %+v: mode %d, want %d", tc.chunk, tc.pred, p.mode, tc.want)
		}
	}
}
