package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHashIndexBasic(t *testing.T) {
	h := NewHashIndex(4)
	if _, ok := h.Get(1); ok {
		t.Fatal("Get on empty index succeeded")
	}
	h.Put(1, 100)
	h.Put(2, 200)
	if v, ok := h.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) = (%d,%v)", v, ok)
	}
	h.Put(1, 111) // overwrite
	if v, _ := h.Get(1); v != 111 {
		t.Fatalf("overwrite failed: %d", v)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
}

func TestHashIndexGrowth(t *testing.T) {
	h := NewHashIndex(2)
	const n = 50000
	for i := 0; i < n; i++ {
		h.Put(Key(i), int32(i))
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := h.Get(Key(i)); !ok || v != int32(i) {
			t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
		}
	}
}

func TestHashIndexDelete(t *testing.T) {
	h := NewHashIndex(16)
	for i := 0; i < 1000; i++ {
		h.Put(Key(i), int32(i))
	}
	for i := 0; i < 1000; i += 3 {
		if !h.Delete(Key(i)) {
			t.Fatalf("Delete(%d) reported absent", i)
		}
	}
	if h.Delete(Key(0)) {
		t.Fatal("double delete succeeded")
	}
	for i := 0; i < 1000; i++ {
		v, ok := h.Get(Key(i))
		if (i%3 == 0) == ok {
			t.Fatalf("Get(%d) presence = %v after deletes", i, ok)
		}
		if ok && v != int32(i) {
			t.Fatalf("Get(%d) = %d", i, v)
		}
	}
}

// TestHashIndexDeleteChains churns puts and deletes over a dense key
// space of two blocks.
func TestHashIndexDeleteChains(t *testing.T) {
	h := NewHashIndex(8)
	rng := rand.New(rand.NewSource(11))
	ref := make(map[Key]int32)
	for step := 0; step < 20000; step++ {
		k := Key(rng.Intn(24)) // dense key space → heavy collisions
		switch rng.Intn(3) {
		case 0, 1:
			v := int32(rng.Intn(1 << 20))
			h.Put(k, v)
			ref[k] = v
		case 2:
			dOK := h.Delete(k)
			_, rOK := ref[k]
			if dOK != rOK {
				t.Fatalf("step %d: Delete(%v) = %v, ref %v", step, k, dOK, rOK)
			}
			delete(ref, k)
		}
		if h.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, ref %d", step, h.Len(), len(ref))
		}
	}
	for k, v := range ref {
		if got, ok := h.Get(k); !ok || got != v {
			t.Fatalf("final Get(%v) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
}

func TestHashIndexQuickVsMap(t *testing.T) {
	type op struct {
		Key Key
		Val int32
		Del bool
	}
	check := func(ops []op) bool {
		h := NewHashIndex(4)
		ref := make(map[Key]int32)
		for _, o := range ops {
			k := o.Key % 128
			if o.Del {
				if h.Delete(k) != mapHas(ref, k) {
					return false
				}
				delete(ref, k)
			} else {
				h.Put(k, o.Val)
				ref[k] = o.Val
			}
		}
		if h.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := h.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mapHas(m map[Key]int32, k Key) bool {
	_, ok := m[k]
	return ok
}

// FuzzHashIndex drives the index with the key shapes its blocks and
// directory must survive, against a map model: dense runs that cross
// block boundaries, one key per block (growing the directory mid-run),
// order-line keys o*16+ol, key 0 and ^Key(0), a delete of an absent id
// inside a present block, and delete then re-insert. After every step
// it checks Len, Get of every key ever touched, and the iteration.
func FuzzHashIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 30, 1, 2, 40, 2, 7, 3, 9, 3, 0, 3, 1, 4, 0, 5, 2, 6, 1, 7, 3})
	f.Add([]byte{1, 60, 9, 1, 60, 200, 0, 0, 250, 39, 5, 0, 6, 5, 4, 3})
	for seed := uint64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		b := make([]byte, 32<<seed)
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHashIndex(0)
		m := &idxModel{h: h, ref: map[Key]int32{}, touched: map[Key]bool{}}
		in := &heapInput{b: data}
		for step := 0; in.more() && step < 64; step++ {
			op := in.byte() % 8
			m.step(t, in, op)
			m.check(t, fmt.Sprintf("step %d (op %d)", step, op))
		}
	})
}

// idxModel is the expected index plus every key any step has touched,
// so a check also sees keys that must read absent.
type idxModel struct {
	h       *HashIndex
	ref     map[Key]int32
	touched map[Key]bool
	next    int32
}

// insert adds key through the insert-if-absent path, which must refuse
// a present key and leave its slot alone.
func (m *idxModel) insert(t *testing.T, key Key) {
	t.Helper()
	m.touched[key] = true
	_, had := m.ref[key]
	if m.h.insert(key, m.next) == had {
		t.Fatalf("insert(%#x) with key present = %v", uint64(key), had)
	}
	if !had {
		m.ref[key] = m.next
		m.next++
	}
}

// present returns the model's keys in order, for a deterministic pick.
func (m *idxModel) present() []Key {
	keys := make([]Key, 0, len(m.ref))
	for k := range m.ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (m *idxModel) step(t *testing.T, in *heapInput, op int) {
	t.Helper()
	switch op {
	case 0: // a dense run of up to 40 ids, crossing block boundaries
		start := MakeKey(in.byte()%3, 0, int64(in.byte()))
		for n := 1 + in.byte()%40; n > 0; n-- {
			m.insert(t, start)
			start++
		}
	case 1: // one key per block: up to 64 new blocks grow the directory
		base := Key(in.byte()) << 24
		for i, n := 0, 1+in.byte()%64; i < n; i++ {
			m.insert(t, (base+Key(i))<<blockShift|Key(in.byte()&blockMask))
		}
	case 2: // one order's lines: o*16+ol for ol in 1..5-15
		d, o := in.byte()%10, int64(in.byte())
		for ol, n := 1, 5+in.byte()%11; ol <= n; ol++ {
			m.insert(t, MakeKey(1, d, o*16+int64(ol)))
		}
	case 3: // the extreme keys, overwritten by Put
		key := []Key{0, ^Key(0), ^Key(0) - blockMask, blockMask}[in.byte()%4]
		m.touched[key] = true
		m.h.Put(key, m.next)
		m.ref[key] = m.next
		m.next++
	case 4, 5, 6: // delete; delete an id beside a present key; delete and re-insert
		keys := m.present()
		if len(keys) == 0 {
			return
		}
		key := keys[in.byte()*len(keys)>>8]
		if op == 5 {
			key = key&^blockMask | Key(in.byte()&blockMask)
		}
		m.touched[key] = true
		_, had := m.ref[key]
		if m.h.Delete(key) != had {
			t.Fatalf("Delete(%#x) with key present = %v", uint64(key), had)
		}
		delete(m.ref, key)
		if op == 6 {
			m.insert(t, key)
		}
	case 7: // insert over a present key must fail and keep its slot
		if keys := m.present(); len(keys) > 0 {
			m.insert(t, keys[in.byte()*len(keys)>>8])
		}
	}
}

func (m *idxModel) check(t *testing.T, at string) {
	t.Helper()
	if m.h.Len() != len(m.ref) {
		t.Fatalf("%s: Len = %d, model %d", at, m.h.Len(), len(m.ref))
	}
	for k := range m.touched {
		want, ok := m.ref[k]
		if got, gok := m.h.Get(k); gok != ok || got != want {
			t.Fatalf("%s: Get(%#x) = (%d,%v), model (%d,%v)", at, uint64(k), got, gok, want, ok)
		}
	}
	seen := map[Key]bool{}
	m.h.each(func(k Key, slot int32) {
		if want, ok := m.ref[k]; !ok || want != slot || seen[k] {
			t.Fatalf("%s: iteration gave (%#x, %d), model (%d, %v), repeated %v",
				at, uint64(k), slot, want, ok, seen[k])
		}
		seen[k] = true
	})
	if len(seen) != len(m.ref) {
		t.Fatalf("%s: iteration gave %d keys, model %d", at, len(seen), len(m.ref))
	}
}

// BenchmarkPrimaryIndex measures the index the way a new-order uses it.
// "insert" adds order lines to an index already holding 4 M of them, the
// size a partition's order-line table reaches in a long OLTP run: keys
// shaped like OrderLineKey, each order in a random district with 5–15
// lines. "get" reads random keys of a dense 100 k-key index, the shape
// of new-order's stock and item reads. "get-4M" reads a random line of a
// random order in the 4 M-key index, which no TPC-C transaction does: it
// is the worst case, a directory miss followed by a block miss. Each
// reports the index's bytes per key.
func BenchmarkPrimaryIndex(b *testing.B) {
	const keys, dense = 4 << 20, 100_000
	b.Run("insert", func(b *testing.B) {
		h, next, _ := orderLineIndex(keys)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !h.insert(next(), int32(i)) {
				b.Fatal("duplicate order line")
			}
		}
		b.ReportMetric(indexBytes(h)/float64(h.Len()), "B/key")
	})
	b.Run("get", func(b *testing.B) {
		h := NewHashIndex(64)
		for i := 1; i <= dense; i++ {
			h.Put(MakeKey(1, 0, int64(i)), int32(i))
		}
		r := rand.New(rand.NewSource(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := h.Get(MakeKey(1, 0, 1+r.Int63n(dense))); !ok {
				b.Fatal("stock key absent")
			}
		}
		b.ReportMetric(indexBytes(h)/float64(h.Len()), "B/key")
	})
	b.Run("get-4M", func(b *testing.B) {
		h, _, orders := orderLineIndex(keys)
		r := rand.New(rand.NewSource(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := MakeKey(1, 1+r.Intn(10), (1+r.Int63n(orders))*16+1+r.Int63n(5))
			if _, ok := h.Get(key); !ok {
				b.Fatalf("order line %v absent", key)
			}
		}
		b.ReportMetric(indexBytes(h)/float64(h.Len()), "B/key")
	})
}

// orderLineIndex returns an index filled with n order-line keys, the
// generator that continues their sequence, and the number of orders
// every district has.
func orderLineIndex(n int) (*HashIndex, func() Key, int64) {
	r := rand.New(rand.NewSource(1))
	var nextO [10]int64
	var d, ol, lines int
	next := func() Key {
		if ol == lines {
			d, ol, lines = r.Intn(10), 0, 5+r.Intn(11)
			nextO[d]++
		}
		ol++
		return MakeKey(1, 1+d, nextO[d]*16+int64(ol))
	}
	h := NewHashIndex(64)
	for i := 0; i < n; i++ {
		h.insert(next(), int32(i))
	}
	return h, next, slices.Min(nextO[:])
}

// indexBytes is the memory the index holds: directory plus block arena.
func indexBytes(h *HashIndex) float64 {
	return float64(len(h.dir)*int(unsafe.Sizeof(dirEntry{})) + cap(h.blocks)*int(unsafe.Sizeof(block{})))
}
