// Package tpcc provides the workload substrate for the paper's
// evaluation: the TPC-C subset exercised by its experiments (payment and
// new-order, §3) plus the CH-benCHmark-style order/customer data that the
// data-beaming query of §4 scans. Everything is generated
// deterministically from a seed.
package tpcc

import "anydb/internal/storage"

// Table names.
const (
	TWarehouse = "warehouse"
	TDistrict  = "district"
	TCustomer  = "customer"
	THistory   = "history"
	TOrders    = "orders"
	TNewOrder  = "new_order"
	TOrderLine = "order_line"
	TItem      = "item"
	TStock     = "stock"
)

// IdxCustomerByLast is the secondary index used by payment's 60%
// select-by-last-name path.
const IdxCustomerByLast = "customer_by_last"

// Interned table handles: the position each table takes in Schemas(),
// which is the TableID `Catalog.AddSchema`/`Partition.CreateTable`
// assign at database creation. The OLTP execute path indexes partitions
// by these instead of hashing table names.
const (
	TWarehouseID storage.TableID = iota
	TDistrictID
	TCustomerID
	THistoryID
	TOrdersID
	TNewOrderID
	TOrderLineID
	TItemID
	TStockID
)

// Hot column positions, resolved once here instead of per-op MustCol
// lookups on the execute path. The schema layouts are fixed; init
// asserts every constant (and the table IDs) against Schemas().
const (
	ColWYTD        = 4 // warehouse.w_ytd
	ColDYTD        = 4 // district.d_ytd
	ColDNextOID    = 5 // district.d_next_o_id
	ColCBalance    = 7 // customer.c_balance
	ColCYtdPayment = 8 // customer.c_ytd_payment
	ColCPaymentCnt = 9 // customer.c_payment_cnt
	ColCLast       = 4 // customer.c_last
	ColIPrice      = 2 // item.i_price
	ColSQuantity   = 2 // stock.s_quantity
	ColSYTD        = 3 // stock.s_ytd
	ColSOrderCnt   = 4 // stock.s_order_cnt
)

func init() {
	cat := storage.NewCatalog()
	schemas := Schemas()
	for _, s := range schemas {
		cat.AddSchema(s)
	}
	ids := map[string]storage.TableID{
		TWarehouse: TWarehouseID, TDistrict: TDistrictID, TCustomer: TCustomerID,
		THistory: THistoryID, TOrders: TOrdersID, TNewOrder: TNewOrderID,
		TOrderLine: TOrderLineID, TItem: TItemID, TStock: TStockID,
	}
	cols := map[string]map[string]int{
		TWarehouse: {"w_ytd": ColWYTD},
		TDistrict:  {"d_ytd": ColDYTD, "d_next_o_id": ColDNextOID},
		TCustomer: {"c_balance": ColCBalance, "c_ytd_payment": ColCYtdPayment,
			"c_payment_cnt": ColCPaymentCnt, "c_last": ColCLast},
		TItem:  {"i_price": ColIPrice},
		TStock: {"s_quantity": ColSQuantity, "s_ytd": ColSYTD, "s_order_cnt": ColSOrderCnt},
	}
	for _, s := range schemas {
		if want := ids[s.Name]; s.ID != want {
			panic("tpcc: TableID constant out of sync for " + s.Name)
		}
		for col, idx := range cols[s.Name] {
			if s.MustCol(col) != idx {
				panic("tpcc: column constant out of sync: " + s.Name + "." + col)
			}
		}
	}
}

// Schemas returns the full schema set. Column subsets follow TPC-C §1.3
// trimmed to the attributes the reproduced transactions and the CH query
// touch; pad columns keep row sizes realistic for transfer modelling.
func Schemas() []*storage.Schema {
	return []*storage.Schema{
		storage.NewSchema(TWarehouse,
			storage.Column{Name: "w_id", Kind: storage.KInt},
			storage.Column{Name: "w_name", Kind: storage.KStr},
			storage.Column{Name: "w_state", Kind: storage.KStr},
			storage.Column{Name: "w_tax", Kind: storage.KFloat},
			storage.Column{Name: "w_ytd", Kind: storage.KFloat},
		),
		storage.NewSchema(TDistrict,
			storage.Column{Name: "d_w_id", Kind: storage.KInt},
			storage.Column{Name: "d_id", Kind: storage.KInt},
			storage.Column{Name: "d_name", Kind: storage.KStr},
			storage.Column{Name: "d_tax", Kind: storage.KFloat},
			storage.Column{Name: "d_ytd", Kind: storage.KFloat},
			storage.Column{Name: "d_next_o_id", Kind: storage.KInt},
		),
		storage.NewSchema(TCustomer,
			storage.Column{Name: "c_w_id", Kind: storage.KInt},
			storage.Column{Name: "c_d_id", Kind: storage.KInt},
			storage.Column{Name: "c_id", Kind: storage.KInt},
			storage.Column{Name: "c_first", Kind: storage.KStr},
			storage.Column{Name: "c_last", Kind: storage.KStr},
			storage.Column{Name: "c_state", Kind: storage.KStr},
			storage.Column{Name: "c_credit", Kind: storage.KStr},
			storage.Column{Name: "c_balance", Kind: storage.KFloat},
			storage.Column{Name: "c_ytd_payment", Kind: storage.KFloat},
			storage.Column{Name: "c_payment_cnt", Kind: storage.KInt},
			storage.Column{Name: "c_data", Kind: storage.KStr},
		),
		storage.NewSchema(THistory,
			storage.Column{Name: "h_c_id", Kind: storage.KInt},
			storage.Column{Name: "h_c_d_id", Kind: storage.KInt},
			storage.Column{Name: "h_c_w_id", Kind: storage.KInt},
			storage.Column{Name: "h_d_id", Kind: storage.KInt},
			storage.Column{Name: "h_w_id", Kind: storage.KInt},
			storage.Column{Name: "h_amount", Kind: storage.KFloat},
		),
		storage.NewSchema(TOrders,
			storage.Column{Name: "o_w_id", Kind: storage.KInt},
			storage.Column{Name: "o_d_id", Kind: storage.KInt},
			storage.Column{Name: "o_id", Kind: storage.KInt},
			storage.Column{Name: "o_c_id", Kind: storage.KInt},
			storage.Column{Name: "o_entry_d", Kind: storage.KInt}, // year
			storage.Column{Name: "o_carrier_id", Kind: storage.KInt},
			storage.Column{Name: "o_ol_cnt", Kind: storage.KInt},
		),
		storage.NewSchema(TNewOrder,
			storage.Column{Name: "no_w_id", Kind: storage.KInt},
			storage.Column{Name: "no_d_id", Kind: storage.KInt},
			storage.Column{Name: "no_o_id", Kind: storage.KInt},
		),
		storage.NewSchema(TOrderLine,
			storage.Column{Name: "ol_w_id", Kind: storage.KInt},
			storage.Column{Name: "ol_d_id", Kind: storage.KInt},
			storage.Column{Name: "ol_o_id", Kind: storage.KInt},
			storage.Column{Name: "ol_number", Kind: storage.KInt},
			storage.Column{Name: "ol_i_id", Kind: storage.KInt},
			storage.Column{Name: "ol_supply_w_id", Kind: storage.KInt},
			storage.Column{Name: "ol_quantity", Kind: storage.KInt},
			storage.Column{Name: "ol_amount", Kind: storage.KFloat},
		),
		storage.NewSchema(TItem,
			storage.Column{Name: "i_id", Kind: storage.KInt},
			storage.Column{Name: "i_name", Kind: storage.KStr},
			storage.Column{Name: "i_price", Kind: storage.KFloat},
		),
		storage.NewSchema(TStock,
			storage.Column{Name: "s_w_id", Kind: storage.KInt},
			storage.Column{Name: "s_i_id", Kind: storage.KInt},
			storage.Column{Name: "s_quantity", Kind: storage.KInt},
			storage.Column{Name: "s_ytd", Kind: storage.KInt},
			storage.Column{Name: "s_order_cnt", Kind: storage.KInt},
			storage.Column{Name: "s_remote_cnt", Kind: storage.KInt},
		),
	}
}

// Key builders. Partitioning is by warehouse: partition w holds every
// table's rows for warehouse w (items are replicated read-only).

// WarehouseKey returns the PK of warehouse w.
func WarehouseKey(w int) storage.Key { return storage.MakeKey(w, 0, 0) }

// DistrictKey returns the PK of district (w,d).
func DistrictKey(w, d int) storage.Key { return storage.MakeKey(w, d, 0) }

// CustomerKey returns the PK of customer (w,d,c).
func CustomerKey(w, d, c int) storage.Key { return storage.MakeKey(w, d, int64(c)) }

// CustomerLastKey builds the secondary key for the by-last-name index:
// TPC-C last names map onto 0..999, which packs into the key's leading
// field so (lastNum, d, c_id) ranges are contiguous.
func CustomerLastKey(lastNum, d, c int) storage.Key {
	return storage.MakeKey(lastNum, d, int64(c))
}

// OrderKey returns the PK of order (w,d,o).
func OrderKey(w, d int, o int64) storage.Key { return storage.MakeKey(w, d, o) }

// NewOrderKey returns the PK of the new-order row for order (w,d,o).
func NewOrderKey(w, d int, o int64) storage.Key { return storage.MakeKey(w, d, o) }

// OrderLineKey returns the PK of line ol of order (w,d,o). Orders have at
// most 15 lines, so the line number packs into the low bits.
func OrderLineKey(w, d int, o int64, ol int) storage.Key {
	return storage.MakeKey(w, d, o*16+int64(ol))
}

// ItemKey returns the PK of item i (replicated per partition).
func ItemKey(i int) storage.Key { return storage.MakeKey(0, 0, int64(i)) }

// StockKey returns the PK of the stock row for item i in warehouse w.
func StockKey(w, i int) storage.Key { return storage.MakeKey(w, 0, int64(i)) }
