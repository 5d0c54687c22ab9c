package storage

import "fmt"

// Partition groups the table shards belonging to one partition key range
// (one TPC-C warehouse in the reproduced workloads). A partition has a
// single owner at any time — an AnyComponent or a baseline transaction
// executor — which is how both engines guarantee race-free access.
type Partition struct {
	ID     int
	tables map[string]*Table
	list   []*Table // dense, indexed by Schema.ID — the hot-path lookup
	slab   RowSlab
}

// Slab returns the partition's row slab. The typed heap copies every
// inserted row, so no engine path carves rows from it any more; it
// survives only for the repo benchmark's storage probe
// (benchmark/probes.go), which builds its insert rows with it.
func (p *Partition) Slab() *RowSlab { return &p.slab }

// NewPartition returns an empty partition.
func NewPartition(id int) *Partition {
	return &Partition{ID: id, tables: make(map[string]*Table)}
}

// CreateTable adds an empty table for schema and returns it. The table
// also lands in the partition's dense by-ID list: at schema.ID when the
// schema was already registered with a catalog, otherwise at the next
// free slot (assigning schema.ID). Creating tables in the same schema
// order in every partition — what NewDatabase does — therefore gives
// every partition the same TableID → table mapping.
func (p *Partition) CreateTable(schema *Schema) *Table {
	if _, dup := p.tables[schema.Name]; dup {
		panic("storage: duplicate table " + schema.Name + " in partition")
	}
	t := NewTable(schema)
	p.tables[schema.Name] = t
	if schema.ID == NoTable {
		schema.ID = TableID(len(p.list))
	}
	for int(schema.ID) >= len(p.list) {
		p.list = append(p.list, nil)
	}
	if p.list[schema.ID] != nil {
		panic(fmt.Sprintf("storage: TableID %d already bound in partition %d (schema %q)",
			schema.ID, p.ID, schema.Name))
	}
	p.list[schema.ID] = t
	return t
}

// Table returns the named table; it panics on unknown names (schema is
// static in both engines, a miss is a programming error).
func (p *Partition) Table(name string) *Table {
	t, ok := p.tables[name]
	if !ok {
		panic(fmt.Sprintf("storage: no table %q in partition %d", name, p.ID))
	}
	return t
}

// TableByID returns the table bound to an interned handle — the execute
// hot path's lookup: an array index instead of a string-keyed map probe.
func (p *Partition) TableByID(id TableID) *Table {
	t := p.list[id]
	if t == nil {
		panic(fmt.Sprintf("storage: no TableID %d in partition %d", id, p.ID))
	}
	return t
}

// HasTable reports whether the partition holds the named table.
func (p *Partition) HasTable(name string) bool {
	_, ok := p.tables[name]
	return ok
}

// Database is the full partitioned store: one Partition per warehouse
// plus the catalog. Both engines share this layout; they differ only in
// who executes against it and how access is coordinated.
type Database struct {
	Partitions []*Partition
	Catalog    *Catalog
}

// NewDatabase creates n empty partitions with the given schemas
// instantiated in each.
func NewDatabase(n int, schemas ...*Schema) *Database {
	db := &Database{Catalog: NewCatalog()}
	for _, s := range schemas {
		db.Catalog.AddSchema(s)
	}
	for i := 0; i < n; i++ {
		p := NewPartition(i)
		for _, s := range schemas {
			p.CreateTable(s)
		}
		db.Partitions = append(db.Partitions, p)
	}
	return db
}

// Partition returns partition id, panicking on out-of-range (ownership
// routing bugs should fail loudly).
func (db *Database) Partition(id int) *Partition {
	if id < 0 || id >= len(db.Partitions) {
		panic(fmt.Sprintf("storage: partition %d out of range [0,%d)", id, len(db.Partitions)))
	}
	return db.Partitions[id]
}

// NumPartitions returns the partition count.
func (db *Database) NumPartitions() int { return len(db.Partitions) }

// Catalog maps table names to schemas and statistics.
type Catalog struct {
	schemas map[string]*Schema
	byID    []*Schema
	stats   map[string]*TableStats
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		schemas: make(map[string]*Schema),
		stats:   make(map[string]*TableStats),
	}
}

// AddSchema registers a schema, assigning its interned TableID (the
// registration position) unless the schema already carries one from an
// earlier catalog — registration order is deterministic, so shared
// schema sets intern identically everywhere.
func (c *Catalog) AddSchema(s *Schema) {
	c.schemas[s.Name] = s
	if s.ID == NoTable {
		s.ID = TableID(len(c.byID))
	}
	for int(s.ID) >= len(c.byID) {
		c.byID = append(c.byID, nil)
	}
	c.byID[s.ID] = s
}

// Schema returns the schema for a table name, or nil.
func (c *Catalog) Schema(name string) *Schema { return c.schemas[name] }

// SetStats stores statistics for a table.
func (c *Catalog) SetStats(table string, st *TableStats) { c.stats[table] = st }

// Stats returns statistics for a table, or nil if never analyzed.
func (c *Catalog) Stats(table string) *TableStats { return c.stats[table] }

// Tables lists registered table names (unordered).
func (c *Catalog) Tables() []string {
	out := make([]string, 0, len(c.schemas))
	for n := range c.schemas {
		out = append(out, n)
	}
	return out
}
