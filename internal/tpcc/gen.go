package tpcc

import (
	"fmt"
	"math/rand"
	"strings"

	"anydb/internal/storage"
)

// Config scales the generated database. Zero fields take TPC-C-flavoured
// defaults via WithDefaults; tests use much smaller scales.
type Config struct {
	Warehouses int
	Districts  int // per warehouse (TPC-C: 10)
	Customers  int // per district (TPC-C: 3000)
	Items      int // catalog size (TPC-C: 100000)
	InitOrders int // initial orders per district (TPC-C: 3000)
	// OpenFrac is the fraction of initial orders that are still open
	// (have a new_order row). TPC-C seeds the last 30%.
	OpenFrac float64
	// DataPad is the size of the customer filler column in bytes,
	// keeping scanned/beamed row volumes realistic.
	DataPad int
	// LinesPerOrder fixes the initial order-line count per order;
	// 0 draws the TPC-C 5..15 uniformly. OLAP-heavy configs that never
	// read order_line set 1 to keep population cheap.
	LinesPerOrder int
	Seed          int64
}

// WithDefaults fills zero fields with reduced-scale defaults suitable for
// simulation (full TPC-C scale only changes constants, not shapes).
func (c Config) WithDefaults() Config {
	if c.Warehouses == 0 {
		c.Warehouses = 4
	}
	if c.Districts == 0 {
		c.Districts = 10
	}
	if c.Customers == 0 {
		c.Customers = 600
	}
	if c.Items == 0 {
		c.Items = 2000
	}
	if c.InitOrders == 0 {
		c.InitOrders = 600
	}
	if c.OpenFrac == 0 {
		c.OpenFrac = 0.30
	}
	if c.DataPad == 0 {
		c.DataPad = 64
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// lastSyllables are the TPC-C §4.3.2.3 last-name syllables; a last name
// is the concatenation of the syllables of a number's three digits.
var lastSyllables = [10]string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// LastName renders number 0..999 as a TPC-C last name.
func LastName(num int) string {
	return lastSyllables[num/100] + lastSyllables[(num/10)%10] + lastSyllables[num%10]
}

// LastNameNum inverts LastName; it returns -1 for non-TPC-C names.
func LastNameNum(name string) int {
	for a := 0; a < 10; a++ {
		if !strings.HasPrefix(name, lastSyllables[a]) {
			continue
		}
		rest := name[len(lastSyllables[a]):]
		for b := 0; b < 10; b++ {
			if !strings.HasPrefix(rest, lastSyllables[b]) {
				continue
			}
			tail := rest[len(lastSyllables[b]):]
			for c := 0; c < 10; c++ {
				if tail == lastSyllables[c] {
					return a*100 + b*10 + c
				}
			}
		}
	}
	return -1
}

// nuRand is TPC-C §2.1.6 non-uniform random: used for customer and item
// selection.
func nuRand(rng *rand.Rand, a, x, y, c int) int {
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

// states: two-letter codes with uniform first letter, so LIKE 'A%'
// selects ≈1/26 of customers (the CH query's filter).
func randState(rng *rand.Rand) string {
	return string([]byte{byte('A' + rng.Intn(26)), byte('A' + rng.Intn(26))})
}

// Years for o_entry_d: uniform 2000..2019, so the CH query's "since 2007"
// keeps 13/20 = 65% of orders.
const (
	minOrderYear = 2000
	maxOrderYear = 2019
)

// Populate fills db (one partition per warehouse) with a deterministic
// TPC-C dataset according to cfg. The customer by-last-name index is
// created on every partition.
func Populate(db *storage.Database, cfg Config) {
	cfg = cfg.WithDefaults()
	if db.NumPartitions() < cfg.Warehouses {
		panic(fmt.Sprintf("tpcc: need %d partitions, have %d", cfg.Warehouses, db.NumPartitions()))
	}
	pad := strings.Repeat("x", cfg.DataPad)
	for w := 0; w < cfg.Warehouses; w++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
		p := db.Partition(w)

		wt := p.Table(TWarehouse)
		// TPC-C seeds w_ytd = 300000 with 10 districts at 30000 each;
		// scale with the configured district count so the §3.3.2.1
		// consistency condition (w_ytd = sum of d_ytd) holds at any
		// scale.
		wt.Insert(WarehouseKey(w), storage.Row{
			storage.Int(int64(w)), storage.Str(fmt.Sprintf("W%03d", w)),
			storage.Str(randState(rng)), storage.Float(0.1),
			storage.Float(30000 * float64(cfg.Districts)),
		})

		items := p.Table(TItem)
		stock := p.Table(TStock)
		for i := 0; i < cfg.Items; i++ {
			items.Insert(ItemKey(i), storage.Row{
				storage.Int(int64(i)), storage.Str(fmt.Sprintf("item-%05d", i)),
				storage.Float(1 + float64(rng.Intn(9999))/100),
			})
			stock.Insert(StockKey(w, i), storage.Row{
				storage.Int(int64(w)), storage.Int(int64(i)),
				storage.Int(int64(10 + rng.Intn(91))), storage.Int(0),
				storage.Int(0), storage.Int(0),
			})
		}

		dt := p.Table(TDistrict)
		ct := p.Table(TCustomer)
		ot := p.Table(TOrders)
		not := p.Table(TNewOrder)
		olt := p.Table(TOrderLine)
		for d := 1; d <= cfg.Districts; d++ {
			dt.Insert(DistrictKey(w, d), storage.Row{
				storage.Int(int64(w)), storage.Int(int64(d)),
				storage.Str(fmt.Sprintf("D%02d", d)), storage.Float(0.05),
				storage.Float(30000), storage.Int(int64(cfg.InitOrders + 1)),
			})
			for c := 1; c <= cfg.Customers; c++ {
				// TPC-C: first 1000 customers cycle through all
				// last names; beyond that use NURand.
				lastNum := c - 1
				if lastNum >= 1000 {
					lastNum = nuRand(rng, 255, 0, 999, 173)
				}
				ct.Insert(CustomerKey(w, d, c), storage.Row{
					storage.Int(int64(w)), storage.Int(int64(d)), storage.Int(int64(c)),
					storage.Str(fmt.Sprintf("first-%04d", c)), storage.Str(LastName(lastNum)),
					storage.Str(randState(rng)), storage.Str("GC"),
					storage.Float(-10), storage.Float(10), storage.Int(1),
					storage.Str(pad),
				})
			}
			// Initial orders: every customer appears once in a random
			// permutation (TPC-C §4.3.3.1).
			perm := rng.Perm(cfg.Customers)
			for o := 1; o <= cfg.InitOrders; o++ {
				cid := perm[(o-1)%cfg.Customers] + 1
				olCnt := cfg.LinesPerOrder
				if olCnt == 0 {
					olCnt = 5 + rng.Intn(11)
				}
				open := float64(o) > float64(cfg.InitOrders)*(1-cfg.OpenFrac)
				carrier := int64(1 + rng.Intn(10))
				if open {
					carrier = 0
				}
				year := int64(minOrderYear + rng.Intn(maxOrderYear-minOrderYear+1))
				ot.Insert(OrderKey(w, d, int64(o)), storage.Row{
					storage.Int(int64(w)), storage.Int(int64(d)), storage.Int(int64(o)),
					storage.Int(int64(cid)), storage.Int(year),
					storage.Int(carrier), storage.Int(int64(olCnt)),
				})
				if open {
					not.Insert(NewOrderKey(w, d, int64(o)), storage.Row{
						storage.Int(int64(w)), storage.Int(int64(d)), storage.Int(int64(o)),
					})
				}
				for l := 1; l <= olCnt; l++ {
					olt.Insert(OrderLineKey(w, d, int64(o), l), storage.Row{
						storage.Int(int64(w)), storage.Int(int64(d)), storage.Int(int64(o)),
						storage.Int(int64(l)), storage.Int(int64(rng.Intn(cfg.Items))),
						storage.Int(int64(w)), storage.Int(5),
						storage.Float(float64(rng.Intn(9999)) / 100),
					})
				}
			}
		}

		// Secondary index for payment-by-last-name range scans.
		cLast := ct.Schema.MustCol("c_last")
		cDist := ct.Schema.MustCol("c_d_id")
		cID := ct.Schema.MustCol("c_id")
		ct.AddIndex(IdxCustomerByLast, func(r storage.Row) storage.Key {
			return CustomerLastKey(LastNameNum(r[cLast].S), int(r[cDist].I), int(r[cID].I))
		}, "c_last", "c_d_id", "c_id")
	}
}

// NewDatabase creates and populates a database in one call — the seed
// database every runtime starts from: deterministic in (config, seed),
// with statistics for the SQL planner (partition 0 is representative:
// population is symmetric across warehouses), so every runtime plans a
// query with the same join order.
func NewDatabase(cfg Config) (*storage.Database, Config) {
	cfg = cfg.WithDefaults()
	db := storage.NewDatabase(cfg.Warehouses, Schemas()...)
	Populate(db, cfg)
	for _, tn := range db.Catalog.Tables() {
		db.Catalog.SetStats(tn, storage.Analyze(db.Partition(0).Table(tn)))
	}
	return db, cfg
}
