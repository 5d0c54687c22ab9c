package storage

// HashIndex is a table's primary index: it maps a packed Key to the row's
// slot in the table heap. It is blocked: the 16 consecutive ids
// key>>blockShift share one block of 16 int32 row slots (one cache line),
// and a small open-addressing directory maps a block key to its block.
//
// Why blocks: TPC-C keys are dense runs. OrderLineKey packs the line
// number into the low 4 bits, so every line of an order sits in one
// block; orders and new-orders of a district fill a block 16 in a row;
// stock and item ids are dense from 1. A new-order's dozen keyed inserts
// then touch two or three cache lines instead of one per key, and a
// dense key costs 4 bytes of block plus a share of a directory entry.
// The cost is sparse keys: a block whose key is alone still takes its
// 64 bytes, plus a 16-byte directory entry at half load. That keeps the
// width at 16: an order's up to 15 lines still fit one block, and a
// sparse key wastes one cache line, not four. And a get is two dependent
// reads, directory then block: a random get over an index far larger
// than the cache misses twice.
//
// The directory is probed with mix, linearly, and never uses a random
// seed or Go map iteration, so the index is deterministic, which the
// simulation runtime relies on for reproducibility. Blocks live in one
// pointer-free arena and are never freed: Delete clears the key's slot
// and leaves its block in place, just as heap slots are never reused.
type HashIndex struct {
	dir    []dirEntry // open addressing, linear probing, load under 0.5
	blocks []block    // the arena; dirEntry.blk indexes it
	n      int        // keys present
	mask   uint64
}

const (
	blockShift = 4
	blockIDs   = 1 << blockShift
	blockMask  = blockIDs - 1
	dirMinCap  = 16
)

// block holds slot+1 for each of its 16 ids; 0 means absent.
type block [blockIDs]int32

// dirEntry maps block key key (a Key >> blockShift) to blocks[blk-1];
// blk 0 marks an empty position.
type dirEntry struct {
	key Key
	blk int32
}

// NewHashIndex returns an index sized for capacity dense keys.
func NewHashIndex(capacity int) *HashIndex {
	nb := (capacity + blockMask) >> blockShift
	n := dirMinCap
	for n < nb*2 { // keep load factor under 0.5
		n <<= 1
	}
	return &HashIndex{
		dir:    make([]dirEntry, n),
		blocks: make([]block, 0, nb),
		mask:   uint64(n - 1),
	}
}

// mix is a 64-bit finalizer (splitmix64) giving a well-spread probe
// start.
func mix(k Key) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of entries.
func (h *HashIndex) Len() int { return h.n }

// find returns the directory position of block key bk: the entry that
// holds it, or the empty position where it would go.
func (h *HashIndex) find(bk Key) uint64 {
	i := mix(bk) & h.mask
	for h.dir[i].blk != 0 && h.dir[i].key != bk {
		i = (i + 1) & h.mask
	}
	return i
}

// Get returns the row slot for key.
func (h *HashIndex) Get(key Key) (int32, bool) {
	e := h.dir[h.find(key>>blockShift)]
	if e.blk == 0 {
		return 0, false
	}
	if s := h.blocks[e.blk-1][key&blockMask]; s != 0 {
		return s - 1, true
	}
	return 0, false
}

// cell returns key's slot cell, adding its block if absent.
func (h *HashIndex) cell(key Key) *int32 {
	bk := key >> blockShift
	i := h.find(bk)
	if h.dir[i].blk == 0 {
		if uint64(len(h.blocks)+1)*2 > uint64(len(h.dir)) {
			h.grow()
			i = h.find(bk)
		}
		h.blocks = append(h.blocks, block{})
		h.dir[i] = dirEntry{key: bk, blk: int32(len(h.blocks))}
	}
	return &h.blocks[h.dir[i].blk-1][key&blockMask]
}

// Put inserts or overwrites the slot for key.
func (h *HashIndex) Put(key Key, slot int32) {
	c := h.cell(key)
	if *c == 0 {
		h.n++
	}
	*c = slot + 1
}

// insert adds key at slot unless key is present; it reports whether it
// did. One probe serves both the duplicate check and the write.
func (h *HashIndex) insert(key Key, slot int32) bool {
	c := h.cell(key)
	if *c != 0 {
		return false
	}
	*c = slot + 1
	h.n++
	return true
}

// Delete removes key, reporting whether it was present. Its block stays.
func (h *HashIndex) Delete(key Key) bool {
	e := h.dir[h.find(key>>blockShift)]
	if e.blk == 0 || h.blocks[e.blk-1][key&blockMask] == 0 {
		return false
	}
	h.blocks[e.blk-1][key&blockMask] = 0
	h.n--
	return true
}

// each visits every entry, block by block in directory order.
func (h *HashIndex) each(fn func(key Key, slot int32)) {
	for _, e := range h.dir {
		if e.blk == 0 {
			continue
		}
		for id, s := range h.blocks[e.blk-1] {
			if s != 0 {
				fn(e.key<<blockShift|Key(id), s-1)
			}
		}
	}
}

// grow doubles the directory; the blocks stay where they are.
func (h *HashIndex) grow() {
	old := h.dir
	h.dir = make([]dirEntry, 2*len(old))
	h.mask = uint64(len(h.dir) - 1)
	for _, e := range old {
		if e.blk != 0 {
			h.dir[h.find(e.key)] = e
		}
	}
}
