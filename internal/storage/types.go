// Package storage is the in-memory storage substrate: schemas, row heaps,
// hash and B+tree indexes, columnar batches for OLAP data streams,
// partitions, a catalog with table statistics, and per-transaction undo
// logs. It has no opinion about architecture — AnyDB and the DBx1000
// baseline both run on it, which keeps the comparison apples-to-apples.
package storage

import (
	"fmt"
	"strings"
)

// Kind enumerates column types. The subset covers TPC-C and the
// CH-benCHmark query used in the paper's evaluation.
type Kind uint8

const (
	KInt Kind = iota // 64-bit signed integer (also dates, as day numbers)
	KFloat
	KStr
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KStr:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a dynamically typed cell. A flat struct (no interface boxing)
// keeps row copies allocation-free on the OLTP hot path.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Int, Float and Str construct Values.
func Int(v int64) Value     { return Value{Kind: KInt, I: v} }
func Float(v float64) Value { return Value{Kind: KFloat, F: v} }
func Str(v string) Value    { return Value{Kind: KStr, S: v} }

// Equal reports deep equality (kind and payload).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KInt:
		return v.I == o.I
	case KFloat:
		return v.F == o.F
	default:
		return v.S == o.S
	}
}

// Compare orders two values of the same kind: -1, 0, +1.
func (v Value) Compare(o Value) int {
	switch v.Kind {
	case KInt:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case KFloat:
		switch {
		case v.F < o.F:
			return -1
		case v.F > o.F:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.S, o.S)
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	default:
		return v.S
	}
}

// size returns the approximate wire size of the value in bytes, used to
// model data-stream transfer volume.
func (v Value) size() int64 {
	if v.Kind == KStr {
		return int64(len(v.S)) + 4
	}
	return 8
}

// Row is one record. Rows are copied by value on read so callers can not
// alias the heap.
type Row []Value

// Clone returns a deep-enough copy (Values are value types).
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Column describes one attribute.
type Column struct {
	Name string
	Kind Kind
}

// TableID is an interned table handle: the dense index a schema gets
// when it is registered with a catalog (and its tables created in each
// partition, in the same order). Hot paths carry the handle instead of
// the table name, so executing an op costs an array index rather than a
// string-keyed map probe.
type TableID int32

// NoTable is the ID of a schema never registered with a catalog.
const NoTable TableID = -1

// Schema describes a table: ordered columns plus the positions that make
// up the primary key (encoded into a single uint64 by the owner).
type Schema struct {
	Name string
	ID   TableID // assigned at catalog registration; NoTable before
	Cols []Column

	byName map[string]int
}

// NewSchema builds a schema and its name lookup.
func NewSchema(name string, cols ...Column) *Schema {
	s := &Schema{Name: name, ID: NoTable, Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.byName[c.Name]; dup {
			panic("storage: duplicate column " + c.Name + " in " + name)
		}
		s.byName[c.Name] = i
	}
	return s
}

// Col returns the index of the named column, or -1.
func (s *Schema) Col(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustCol is Col but panics on unknown names; used where the schema is
// static and a miss is a programming error.
func (s *Schema) MustCol(name string) int {
	i := s.Col(name)
	if i < 0 {
		panic(fmt.Sprintf("storage: no column %q in table %q", name, s.Name))
	}
	return i
}

// NumCols returns the column count.
func (s *Schema) NumCols() int { return len(s.Cols) }

// Key is a packed primary or secondary key. Composite TPC-C keys pack
// into 64 bits comfortably: 12 bits warehouse, 8 bits district, 44 bits
// entity id.
type Key uint64

// MakeKey packs (warehouse, district, id) into a Key. id must fit 44
// bits.
func MakeKey(w, d int, id int64) Key {
	return Key(uint64(w)<<52 | uint64(d&0xff)<<44 | uint64(id)&((1<<44)-1))
}

// Warehouse, District and ID unpack the key components.
func (k Key) Warehouse() int { return int(k >> 52) }
func (k Key) District() int  { return int(k>>44) & 0xff }
func (k Key) ID() int64      { return int64(k & ((1 << 44) - 1)) }

func (k Key) String() string {
	return fmt.Sprintf("w%d/d%d/%d", k.Warehouse(), k.District(), k.ID())
}
