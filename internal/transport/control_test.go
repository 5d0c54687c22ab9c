package transport

import (
	"fmt"
	"reflect"
	"testing"

	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// snapByName indexes a partition snapshot by table name (the catalog
// lists tables in map order).
func snapByName(tables []TableSnap) map[string]TableSnap {
	out := make(map[string]TableSnap, len(tables))
	for _, ts := range tables {
		out[ts.Name] = ts
	}
	return out
}

// tableContents is one table's snapshot independent of hash-index
// order: keyed rows by key, keyless rows in heap order.
type tableContents struct {
	Keyed   map[storage.Key]storage.Row
	Keyless []storage.Row
}

// contents reads partition w as comparable table contents.
func contents(db *storage.Database, w int) map[string]tableContents {
	out := make(map[string]tableContents)
	for _, ts := range SnapshotPartition(db, w) {
		c := tableContents{Keyed: make(map[storage.Key]storage.Row, len(ts.Keys)), Keyless: ts.Keyless}
		for i, k := range ts.Keys {
			c.Keyed[k] = ts.Rows[i]
		}
		out[ts.Name] = c
	}
	return out
}

// TestInstallPartitionRejectsMalformed feeds InstallPartition snapshots a
// faulty or hostile peer could send. Each must come back as an error —
// not a panic of the receiving process — and leave the partition exactly
// as it was, including the tables listed before the bad one. A
// well-formed snapshot of another partition then installs.
func TestInstallPartitionRejectsMalformed(t *testing.T) {
	db, _ := tpcc.NewDatabase(tpcc.Config{Warehouses: 2, Districts: 2, Customers: 20, Items: 50, InitOrders: 10})

	// valid returns a fresh, well-formed snapshot of partition 1 with
	// district first, so a bad table later in the list would find it
	// already replaced by an install that does not check first.
	valid := func() []TableSnap {
		snap := snapByName(SnapshotPartition(db, 1))
		out := []TableSnap{snap[tpcc.TDistrict]}
		for name, ts := range snap {
			if name != tpcc.TDistrict {
				out = append(out, ts)
			}
		}
		return out
	}
	find := func(tables []TableSnap, name string) *TableSnap {
		for i := range tables {
			if tables[i].Name == name {
				return &tables[i]
			}
		}
		t.Fatalf("no table %q in the snapshot", name)
		return nil
	}
	cases := []struct {
		name string
		w    int
		bad  func([]TableSnap) []TableSnap
	}{
		{"partition out of range", 7, func(s []TableSnap) []TableSnap { return s }},
		{"unknown table", 0, func(s []TableSnap) []TableSnap {
			return append(s, TableSnap{Name: "nope"})
		}},
		{"table named twice", 0, func(s []TableSnap) []TableSnap {
			return append(s, *find(s, tpcc.TDistrict))
		}},
		{"more keys than rows", 0, func(s []TableSnap) []TableSnap {
			c := find(s, tpcc.TCustomer)
			c.Rows = c.Rows[:len(c.Rows)-1]
			return s
		}},
		{"keyless row of the wrong arity", 0, func(s []TableSnap) []TableSnap {
			h := find(s, tpcc.THistory)
			h.Keyless = append(h.Keyless, storage.Row{storage.Int(1)})
			return s
		}},
		{"cell of the wrong kind", 0, func(s []TableSnap) []TableSnap {
			o := find(s, tpcc.TOrders)
			o.Rows[0] = o.Rows[0].Clone()
			o.Rows[0][1] = storage.Str("two")
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := contents(db, 0)
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panicked: %v", r)
						t.Errorf("InstallPartition panicked: %v", r)
					}
				}()
				return InstallPartition(db, tc.w, tc.bad(valid()))
			}()
			if err == nil {
				t.Fatal("malformed snapshot installed without an error")
			}
			if after := contents(db, 0); !reflect.DeepEqual(before, after) {
				t.Fatalf("rejected snapshot (%v) changed partition 0", err)
			}
		})
	}

	if err := InstallPartition(db, 0, valid()); err != nil {
		t.Fatalf("well-formed snapshot: %v", err)
	}
	if a, b := contents(db, 0), contents(db, 1); !reflect.DeepEqual(a, b) {
		t.Fatal("partition 0 does not hold partition 1's snapshot after install")
	}
}
