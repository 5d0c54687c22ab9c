package olap

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"testing"

	"anydb/internal/storage"
)

// FuzzGroupKeys checks compareKeys, the one group order, on rows of 1-3
// key columns drawn from the input: ints with negatives and the int64
// extremes, floats with 0, -0, NaNs and infinities, strings over a
// four-byte alphabet (NUL and 0xff among it) with "" and shared prefixes.
// Each row is held twice: as raw vectors and as a table's encoded chunk,
// where ints and strings are dictionary-coded. Over every pair of rows,
// in every mix of the two forms, compareKeys must
//
//   - give the same answer whichever form each side is in;
//   - be antisymmetric, and 0 for a row against itself;
//   - order numbers by value (-0 just before 0, NaNs first and equal)
//     and strings by their bytes, column by column;
//   - return 0 exactly when the rows' appendKeyVal keys are equal, so the
//     merge and the key map agree on which rows form one group;
//
// and over every triple it must be transitive.
func FuzzGroupKeys(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{1, 0x80, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0xff, 10})
	f.Add(uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 20, 9, 0xe0, 0, 1, 1})
	f.Add(uint8(2), []byte{0, 1, 0, 1, 1, 2, 0, 0, 2, 1, 1, 3, 2, 3, 3, 1, 3, 3, 3, 3})
	f.Add(uint8(23), []byte{1, 1, 0, 1, 1, 1, 5, 2, 1, 0, 2, 7, 3, 0, 0xf0, 8, 1, 2, 1, 0, 1, 5})
	f.Add(uint8(26), []byte{2, 0, 1, 1, 2, 1, 3, 2, 0, 0, 1, 2, 1, 2, 3, 2, 1, 0, 1, 3, 1, 1, 2, 0})
	// ("a\x00", "b") and ("a", "\x00b"): one key if each string were
	// only NUL-terminated.
	f.Add(uint8(25), []byte{2, 0, 2, 1, 1, 1, 0, 2, 2, 1})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		in := &keyInput{b: data}
		kinds := make([]storage.Kind, 1+int(shape)%3)
		cols := make([]storage.Column, len(kinds))
		for k, d := 0, int(shape)/3; k < len(kinds); k, d = k+1, d/3 {
			kinds[k] = []storage.Kind{storage.KInt, storage.KFloat, storage.KStr}[d%3]
			cols[k] = storage.Column{Name: fmt.Sprintf("k%d", k), Kind: kinds[k]}
		}
		var rows []storage.Row
		for len(rows) < 2 || in.more() && len(rows) < 16 {
			row := make(storage.Row, len(kinds))
			for k, kind := range kinds {
				row[k] = in.value(kind)
			}
			rows = append(rows, row)
		}

		raw := make([]storage.EncVec, len(kinds))
		for k, kind := range kinds {
			raw[k].Reset(kind)
			for _, row := range rows {
				switch kind {
				case storage.KInt:
					raw[k].Ints = append(raw[k].Ints, row[k].I)
				case storage.KFloat:
					raw[k].Floats = append(raw[k].Floats, row[k].F)
				default:
					raw[k].Strs = append(raw[k].Strs, row[k].S)
				}
			}
		}
		tab := storage.NewTable(storage.NewSchema("keys", cols...))
		for _, row := range rows {
			tab.Append(row)
		}
		enc := tab.ColChunk(0).Cols
		for k, kind := range kinds {
			if kind != storage.KFloat && enc[k].Enc != storage.EncDict {
				t.Fatalf("column %d is not dictionary-coded in the chunk", k)
			}
		}

		keys := make([]string, len(rows))
		for i, row := range rows {
			var buf []byte
			for _, v := range row {
				buf = appendKeyVal(buf, v)
			}
			keys[i] = string(buf)
		}
		c := make([][]int, len(rows))
		for i := range rows {
			c[i] = make([]int, len(rows))
			for j := range rows {
				got := compareKeys(raw, i, raw, j)
				for _, mix := range [][2][]storage.EncVec{{raw, enc}, {enc, raw}, {enc, enc}} {
					if m := compareKeys(mix[0], i, mix[1], j); m != got {
						t.Fatalf("rows %v and %v: %d raw, %d with an encoded side", rows[i], rows[j], got, m)
					}
				}
				if want := valueOrder(rows[i], rows[j]); sign(got) != want {
					t.Fatalf("rows %v and %v: compareKeys %d, by value %d", rows[i], rows[j], got, want)
				}
				if (got == 0) != (keys[i] == keys[j]) {
					t.Fatalf("rows %v and %v: compareKeys %d, map keys equal %v", rows[i], rows[j], got, keys[i] == keys[j])
				}
				c[i][j] = sign(got)
			}
		}
		for i := range rows {
			if c[i][i] != 0 {
				t.Fatalf("row %v compares %d with itself", rows[i], c[i][i])
			}
			for j := range rows {
				if c[i][j] != -c[j][i] {
					t.Fatalf("rows %v and %v: %d one way, %d the other", rows[i], rows[j], c[i][j], c[j][i])
				}
				for k := range rows {
					if c[i][j] <= 0 && c[j][k] <= 0 && c[i][k] != min(c[i][j], c[j][k]) {
						t.Fatalf("rows %v <= %v <= %v, but the first compares %d with the last", rows[i], rows[j], rows[k], c[i][k])
					}
				}
			}
		}
	})
}

// valueOrder is the group order written out value by value: the first
// column that differs decides, an int or a float by number, a string by
// its bytes; a float's -0 sorts just before 0, and NaNs before every
// number, all equal.
func valueOrder(a, b storage.Row) int {
	for k := range a {
		x, y := a[k], b[k]
		c := 0
		switch x.Kind {
		case storage.KInt:
			c = cmp.Compare(x.I, y.I)
		case storage.KFloat:
			switch xn, yn := math.IsNaN(x.F), math.IsNaN(y.F); {
			case xn || yn:
				c = cmp.Compare(btoi(!xn), btoi(!yn))
			case x.F < y.F:
				c = -1
			case x.F > y.F:
				c = 1
			default:
				c = cmp.Compare(btoi(!math.Signbit(x.F)), btoi(!math.Signbit(y.F)))
			}
		default:
			c = strings.Compare(x.S, y.S)
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sign(c int) int { return cmp.Compare(c, 0) }

// keyInput reads key values from fuzz bytes; past the end it reads 0.
type keyInput struct {
	b   []byte
	off int
}

func (in *keyInput) more() bool { return in.off < len(in.b) }

func (in *keyInput) byte() byte {
	if in.off >= len(in.b) {
		return 0
	}
	in.off++
	return in.b[in.off-1]
}

// keyFloats are the float values a selector byte below their count
// picks: the zeros, NaNs of both signs and two payloads, the infinities
// and the extremes.
var keyFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Copysign(math.NaN(), -1),
	math.Float64frombits(0x7ff0000000000f00), math.Inf(1), math.Inf(-1), math.MaxFloat64,
	-math.SmallestNonzeroFloat64}

// value reads one value of kind: a small int (negatives included) or,
// after the byte 0x80, a full eight-byte one; a float from keyFloats or
// a small quarter-unit one; a string of up to three bytes over
// "ab\x00\xff".
func (in *keyInput) value(kind storage.Kind) storage.Value {
	switch kind {
	case storage.KInt:
		b := in.byte()
		if b != 0x80 {
			return storage.Int(int64(int8(b)))
		}
		var u uint64
		for range 8 {
			u = u<<8 | uint64(in.byte())
		}
		return storage.Int(int64(u))
	case storage.KFloat:
		b := in.byte()
		if int(b) < len(keyFloats) {
			return storage.Float(keyFloats[b])
		}
		return storage.Float(float64(int8(in.byte())) / 4)
	}
	s := make([]byte, in.byte()%4)
	for i := range s {
		s[i] = "ab\x00\xff"[in.byte()%4]
	}
	return storage.Str(string(s))
}
