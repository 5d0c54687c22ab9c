package storage

// slabChunkValues sizes the value block a RowSlab carves rows out of.
const slabChunkValues = 4096

// RowSlab carves fixed-arity rows out of large value blocks. Tables copy
// inserted rows into their typed heap, so a slab row is only scratch;
// the type survives for the repo benchmark's storage probe
// (benchmark/probes.go) alone. A slab is single-writer: it belongs to
// whoever owns the partition, like the tables themselves.
type RowSlab struct {
	block []Value
}

// NewRow returns a zeroed n-value row carved from the slab (blocks are
// freshly allocated and never recycled, so carved rows start zero). The
// row's capacity is clipped to its length, so appends can never bleed
// into a neighboring row.
func (s *RowSlab) NewRow(n int) Row {
	if len(s.block) < n {
		s.block = make([]Value, slabChunkValues)
	}
	r := Row(s.block[:n:n])
	s.block = s.block[n:]
	return r
}
