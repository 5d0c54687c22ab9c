package olap

import (
	"math"
	"slices"
	"sync/atomic"

	"anydb/internal/storage"
)

// KeyFilter is what a hash join tells its probe-side scans: the box of
// its build keys — per key column the least key and the span to the
// greatest — and, when the box has at most KeyBoxCap cells, an exact
// bitmap with one bit per cell, set for every build key. A key's cell is
// its mixed-radix offset in the box: row-major over Cols, the last
// column varying fastest. With its bitmap the filter keeps exactly the
// rows whose key is a build key; past the cap it is the ranges alone,
// which keep every such row and also the others inside the box. An empty
// build is a one-cell box with no bit set.
type KeyFilter struct {
	Cols []string // the probe table's key columns, in join-key order
	Lo   []int64  // per key column: the least build key
	Span []uint64 // per key column: the greatest build key minus Lo
	Bits []uint64 // the box's bitmap, BoxWords long; nil past the cap
	// gen is the generation of the join build box the filter came from
	// (keyBox.gen): two filters of one non-zero generation have the same
	// bitmap. A filter made any other way — decoded from the wire, or
	// built by hand — has generation 0 and is compared word by word.
	gen uint64
}

// boxGens hands out key-box generations, one per build box a join
// computes; 0 is never handed out.
var boxGens atomic.Uint64

// KeyBoxCap bounds the cells of a box that gets a bitmap: 2²¹ bits, a
// 256 KiB bitmap.
const KeyBoxCap = 1 << 21

// BoxWords returns the bitmap length, in 64-bit words, of the box with
// least keys lo and spans span: 0 past KeyBoxCap. ok is false when the
// box is malformed — no column, more than MaxJoinKeys, lo and span of
// different lengths, or a span that runs past MaxInt64.
func BoxWords(lo []int64, span []uint64) (words int, ok bool) {
	if len(span) == 0 || len(span) > MaxJoinKeys || len(lo) != len(span) {
		return 0, false
	}
	for j, s := range span {
		if s > uint64(math.MaxInt64)-uint64(lo[j]) {
			return 0, false
		}
	}
	cells, fits := boxCells(span)
	if !fits {
		return 0, true
	}
	return (cells + 63) / 64, true
}

// boxCells returns the number of cells of the box with spans span, and
// false when it is past KeyBoxCap.
func boxCells(span []uint64) (int, bool) {
	n := uint64(1)
	for _, s := range span {
		if s >= KeyBoxCap {
			return 0, false
		}
		if n *= s + 1; n > KeyBoxCap {
			return 0, false
		}
	}
	return int(n), true
}

// boxStrides returns each column's place value in the box with spans
// span: the last column's is 1, and each other column's is the product
// of the later columns' widths.
func boxStrides(span []uint64) [MaxJoinKeys]uint64 {
	var st [MaxJoinKeys]uint64
	s := uint64(1)
	for j := len(span) - 1; j >= 0; j-- {
		st[j] = s
		s *= span[j] + 1
	}
	return st
}

// keyScan is a KeyFilter compiled against a probe table, one per
// selection-memo signature (memo.go), so it is compiled once for every
// query that brings the same filter: a range predicate per key column
// (the scan predicates' closed-range form, prepared per chunk, so a
// chunk outside the box resolves to no row without a row loop), the
// box's place values, a code → key-delta table per dictionary-encoded
// key column, and scratch.
type keyScan struct {
	f      *KeyFilter
	ranges []compiledPred
	stride [MaxJoinKeys]uint64
	dicts  [MaxJoinKeys]dictDeltas
	off    []uint64
}

// dictDeltas maps a dictionary's codes to their values' distance from
// the box's least key, value − Lo modulo 2⁶⁴: a value is inside the box
// exactly when its delta is at most the column's span. Like extendBits,
// it extends as the dictionary grows: inserts between two queries of one
// signature add codes.
type dictDeltas struct {
	d      *storage.Dict
	deltas []uint64
}

// of returns the table for dictionary d, extended to its current codes.
func (t *dictDeltas) of(d *storage.Dict, lo uint64) []uint64 {
	if t.d != d {
		t.d, t.deltas = d, t.deltas[:0]
	}
	for code := len(t.deltas); code < d.Len(); code++ {
		t.deltas = append(t.deltas, uint64(d.DecodeInt(uint32(code)))-lo)
	}
	return t.deltas
}

// newKeyScan compiles f against the probe table's schema.
func newKeyScan(schema *storage.Schema, f *KeyFilter) *keyScan {
	k := &keyScan{f: f, ranges: make([]compiledPred, len(f.Cols))}
	for j, col := range f.Cols {
		k.ranges[j] = compilePred(schema, Predicate{Col: col, Kind: PredIn, Lo: f.Lo[j], Hi: f.Lo[j] + int64(f.Span[j])})
	}
	k.stride = boxStrides(f.Span)
	return k
}

// keep narrows sel in place to the rows whose key the filter keeps.
// Each key column's range is first resolved for the whole chunk: a
// column outside the box ends the chunk with no row loop, and one
// wholly inside it needs no per-row check. Then one typed
// loop per key column, straight off the encoded vector, takes each row's
// delta from the column's least key — a frame-of-reference delta over a
// per-chunk constant, a dictionary code's table entry, a raw int minus
// Lo — drops the row if a checked column's delta passes the span, and
// adds delta · stride to the row's cell. A one-code dictionary inside
// the box adds a constant. Past the cap the spans are the whole filter;
// otherwise one bit test per row ends it.
func (k *keyScan) keep(c *storage.EncChunk, sel []int32) []int32 {
	for j := range k.ranges {
		p := &k.ranges[j]
		if p.prepare(c); p.mode == modeNone {
			return sel[:0]
		}
	}
	live, off := sel, zeroed(k.off, len(sel))
	var base uint64
	for j := range k.ranges {
		v, lo, span, stride := &c.Cols[k.ranges[j].col], uint64(k.f.Lo[j]), k.f.Span[j], k.stride[j]
		check, w := k.ranges[j].mode != modeAll, 0
		switch {
		case v.Enc == storage.EncFoR:
			ref, codes := uint64(v.Ref)-lo, v.Codes
			if !check {
				base += ref * stride
				for i, m := range live {
					off[i] += uint64(codes[m]) * stride
				}
				continue
			}
			for i, m := range live {
				d := ref + uint64(codes[m])
				live[w], off[w] = m, off[i]+d*stride
				if d <= span {
					w++
				}
			}
		case v.Enc == storage.EncDict && v.Dict.Len() == 1:
			base += k.dicts[j].of(v.Dict, lo)[0] * stride // inside: prepare resolved it
			continue
		case v.Enc == storage.EncDict:
			deltas, codes := k.dicts[j].of(v.Dict, lo), v.Codes
			if !check {
				for i, m := range live {
					off[i] += deltas[codes[m]] * stride
				}
				continue
			}
			for i, m := range live {
				d := deltas[codes[m]]
				live[w], off[w] = m, off[i]+d*stride
				if d <= span {
					w++
				}
			}
		default:
			ints := v.Ints
			for i, m := range live {
				d := uint64(ints[m]) - lo
				live[w], off[w] = m, off[i]+d*stride
				if d <= span {
					w++
				}
			}
		}
		live, off = live[:w], off[:w]
	}
	k.off = off
	if k.f.Bits == nil {
		return live
	}
	bits, w := k.f.Bits, 0
	for i, m := range live {
		if o := off[i] + base; bits[o>>6]&(1<<(o&63)) != 0 {
			live[w] = m
			w++
		}
	}
	return live[:w]
}

// keyBox is a join build's key box as the join itself uses it: the
// least key and span per key column, the place values, the bitmap of
// the build keys when the box is within KeyBoxCap (in the pooled join
// table), and the box's generation. A fresh build's box takes a new
// generation from boxGens, and a join reusing a kept build takes the
// kept box's, so one generation always names one bitmap.
type keyBox struct {
	lo     joinKey
	span   [MaxJoinKeys]uint64
	stride [MaxJoinKeys]uint64
	bits   []uint64 // nil past the cap
	gen    uint64
}

// cells narrows live — rows of batch b — to those whose key, columns
// cols, lies inside the box, and returns their cell offsets alongside,
// in off's storage: one typed loop per key column.
func (x *keyBox) cells(b *storage.Batch, cols []int, live []int32, off []uint64) ([]int32, []uint64) {
	off = zeroed(off, len(live))
	for j, c := range cols {
		ints, lo, span, stride := b.Cols[c].Ints, uint64(x.lo[j]), x.span[j], x.stride[j]
		w := 0
		for i, m := range live {
			if d := uint64(ints[m]) - lo; d <= span {
				live[w], off[w] = m, off[i]+d*stride
				w++
			}
		}
		live, off = live[:w], off[:w]
	}
	return live, off
}

// filter returns the KeyFilter of the box over the probe key columns
// cols. It shares the bitmap, which the probe-side scans only read and
// which outlives them: the join recycles it after its probe side closes.
func (x *keyBox) filter(cols []string) *KeyFilter {
	n := len(cols)
	return &KeyFilter{
		Cols: cols,
		Lo:   slices.Clone(x.lo[:n]),
		Span: slices.Clone(x.span[:n]),
		Bits: x.bits,
		gen:  x.gen,
	}
}
