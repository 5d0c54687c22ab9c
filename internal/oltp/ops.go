// Package oltp turns TPC-C transactions into the paper's execution model:
// a transaction is logically disaggregated into an ordered list of
// operations (Figure 4a); routing policies then decide how much of that
// list executes physically aggregated at which AnyComponent (Figures
// 4b–4d and streaming CC). The same operations also run directly inside
// the DBx1000 baseline, so both engines execute identical logic against
// identical storage.
package oltp

import (
	"errors"
	"fmt"
	"sync/atomic"

	"anydb/internal/cc"
	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// Class is the record class an operation touches — the routing
// granularity for fine-grained (intra-transaction) parallelism.
type Class uint8

const (
	ClassWarehouse Class = iota
	ClassDistrict
	ClassCustomer
	ClassHistory
	ClassOrder // order/new_order/order_line inserts
	ClassStock
	numClasses
)

var classNames = [...]string{"warehouse", "district", "customer", "history", "order", "stock"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ErrAbort signals a logical transaction abort (TPC-C new-order §2.4.1.4
// invalid item).
var ErrAbort = errors.New("oltp: transaction abort")

// Exec is the environment an operation runs in: storage, cost charging,
// and the per-transaction undo log.
type Exec struct {
	DB     *storage.Database
	Costs  *sim.CostModel
	Charge func(sim.Time)
	Undo   *storage.UndoLog
}

// NewExec builds an Exec charging against ctx.
func NewExec(ctx core.Context, db *storage.Database, undo *storage.UndoLog) *Exec {
	return &Exec{DB: db, Costs: ctx.Costs(), Charge: ctx.Charge, Undo: undo}
}

// Op is one logical operation of a transaction.
type Op interface {
	// Warehouse returns the partition whose data the op touches.
	Warehouse() int
	// Class returns the record class for fine-grained routing.
	Class() Class
	// Run executes the op. It returns ErrAbort for logical aborts;
	// any other failure is an invariant violation and panics inside.
	Run(e *Exec) error
	// Locks lists the record resources a lock-based engine (the
	// DBx1000 baseline) must hold exclusively to run the op. AnyDB
	// never calls it — its consistency comes from event ordering.
	Locks() []cc.Resource
}

// ---- Payment operations (TPC-C §2.5) ----

// UpdateWarehouseYTD adds the payment amount to w_ytd.
type UpdateWarehouseYTD struct {
	W      int
	Amount float64
}

func (o *UpdateWarehouseYTD) Warehouse() int { return o.W }
func (o *UpdateWarehouseYTD) Class() Class   { return ClassWarehouse }
func (o *UpdateWarehouseYTD) Locks() []cc.Resource {
	return []cc.Resource{{Table: tpcc.TWarehouse, Key: tpcc.WarehouseKey(o.W)}}
}
func (o *UpdateWarehouseYTD) Run(e *Exec) error {
	t := e.DB.Partition(o.W).TableByID(tpcc.TWarehouseID)
	slot, ok := t.Lookup(tpcc.WarehouseKey(o.W))
	e.Charge(e.Costs.IndexLookup)
	if !ok {
		panic(fmt.Sprintf("oltp: warehouse %d missing", o.W))
	}
	col := tpcc.ColWYTD
	old := t.UpdateAt(slot, col, storage.Float(t.Field(slot, col).F+o.Amount))
	e.Undo.LogUpdate(t, slot, col, old)
	e.Charge(e.Costs.RecordUpdate)
	return nil
}

// UpdateDistrictYTD adds the payment amount to d_ytd.
type UpdateDistrictYTD struct {
	W, D   int
	Amount float64
}

func (o *UpdateDistrictYTD) Warehouse() int { return o.W }
func (o *UpdateDistrictYTD) Class() Class   { return ClassDistrict }
func (o *UpdateDistrictYTD) Locks() []cc.Resource {
	return []cc.Resource{{Table: tpcc.TDistrict, Key: tpcc.DistrictKey(o.W, o.D)}}
}
func (o *UpdateDistrictYTD) Run(e *Exec) error {
	t := e.DB.Partition(o.W).TableByID(tpcc.TDistrictID)
	slot, ok := t.Lookup(tpcc.DistrictKey(o.W, o.D))
	e.Charge(e.Costs.IndexLookup)
	if !ok {
		panic(fmt.Sprintf("oltp: district %d/%d missing", o.W, o.D))
	}
	col := tpcc.ColDYTD
	old := t.UpdateAt(slot, col, storage.Float(t.Field(slot, col).F+o.Amount))
	e.Undo.LogUpdate(t, slot, col, old)
	e.Charge(e.Costs.RecordUpdate)
	return nil
}

// PayCustomer finds the customer (by id, or by last name taking the
// middle match per §2.5.2.2) and moves the amount from balance to
// ytd_payment.
type PayCustomer struct {
	W, D   int // customer's warehouse/district
	C      int
	ByLast bool
	Last   int
	Amount float64
}

func (o *PayCustomer) Warehouse() int { return o.W }
func (o *PayCustomer) Class() Class   { return ClassCustomer }

// Locks returns the customer record lock, or a surrogate range lock on
// the (last name, district) index prefix for the by-name variant.
func (o *PayCustomer) Locks() []cc.Resource {
	if o.ByLast {
		return []cc.Resource{{Table: tpcc.TCustomer + "_last", Key: tpcc.CustomerLastKey(o.Last, o.D, 0)}}
	}
	return []cc.Resource{{Table: tpcc.TCustomer, Key: tpcc.CustomerKey(o.W, o.D, o.C)}}
}
func (o *PayCustomer) Run(e *Exec) error {
	t := e.DB.Partition(o.W).TableByID(tpcc.TCustomerID)
	var slot int32
	if o.ByLast {
		// Ordered range over the by-last-name index: the long scan
		// that precise splitting isolates (§3.2).
		var slots []int32
		lo := tpcc.CustomerLastKey(o.Last, o.D, 0)
		hi := tpcc.CustomerLastKey(o.Last, o.D, 1<<40)
		e.Charge(e.Costs.IndexLookup)
		t.Range(tpcc.IdxCustomerByLast, lo, hi, func(s int32, _ storage.Row) bool {
			slots = append(slots, s)
			e.Charge(e.Costs.IndexScanRow)
			return true
		})
		if len(slots) == 0 {
			panic(fmt.Sprintf("oltp: no customer with last name %d in %d/%d", o.Last, o.W, o.D))
		}
		slot = slots[len(slots)/2]
	} else {
		var ok bool
		slot, ok = t.Lookup(tpcc.CustomerKey(o.W, o.D, o.C))
		e.Charge(e.Costs.IndexLookup)
		if !ok {
			panic(fmt.Sprintf("oltp: customer %d/%d/%d missing", o.W, o.D, o.C))
		}
	}
	e.Charge(e.Costs.RecordRead)
	const bal, ytd, cnt = tpcc.ColCBalance, tpcc.ColCYtdPayment, tpcc.ColCPaymentCnt
	e.Undo.LogUpdate(t, slot, bal, t.UpdateAt(slot, bal, storage.Float(t.Field(slot, bal).F-o.Amount)))
	e.Undo.LogUpdate(t, slot, ytd, t.UpdateAt(slot, ytd, storage.Float(t.Field(slot, ytd).F+o.Amount)))
	e.Undo.LogUpdate(t, slot, cnt, t.UpdateAt(slot, cnt, storage.Int(t.Field(slot, cnt).I+1)))
	e.Charge(e.Costs.RecordUpdate)
	return nil
}

// InsertHistory appends the payment history row. CRef identifies the
// customer: the id when selected by id, or -(lastNum+1) when selected by
// last name — the split execution of Figure 4d runs this op in parallel
// with the customer scan, so the resolved id is not available; every
// mode stores the same selector form to keep end states comparable.
type InsertHistory struct {
	W, D   int
	CW, CD int
	CRef   int64
	Amount float64
}

func (o *InsertHistory) Warehouse() int { return o.W }
func (o *InsertHistory) Class() Class   { return ClassHistory }

// Locks: history is append-only with a fresh key; nothing to lock.
func (o *InsertHistory) Locks() []cc.Resource { return nil }

// Run appends the row through the partition's slab: history is
// insert-only and never point-looked-up or deleted, so it skips the
// primary index entirely and carves its row out of a block allocation —
// the per-transaction history insert costs no steady-state allocation
// (scans, row counts and the TPC-C consistency checks see slab rows
// exactly like keyed ones).
func (o *InsertHistory) Run(e *Exec) error {
	p := e.DB.Partition(o.W)
	t := p.TableByID(tpcc.THistoryID)
	row := p.Slab().NewRow(6)
	row[0] = storage.Int(o.CRef)
	row[1] = storage.Int(int64(o.CD))
	row[2] = storage.Int(int64(o.CW))
	row[3] = storage.Int(int64(o.D))
	row[4] = storage.Int(int64(o.W))
	row[5] = storage.Float(o.Amount)
	slot := t.Append(row)
	e.Undo.LogAppend(t, slot)
	e.Charge(e.Costs.RecordInsert)
	return nil
}

// ---- New-order operations (TPC-C §2.4) ----

// InsertOrder performs the home-warehouse part of new-order: bump
// d_next_o_id, insert the orders / new_order rows, and insert one
// order_line per item (reading the replicated item table for prices).
// Invalid items abort.
type InsertOrder struct {
	W, D, C int
	Lines   []tpcc.NewOrderLine
	Year    int64
}

func (o *InsertOrder) Warehouse() int { return o.W }
func (o *InsertOrder) Class() Class   { return ClassOrder }

// Locks: the district row (d_next_o_id counter); inserted rows are
// invisible until commit.
func (o *InsertOrder) Locks() []cc.Resource {
	return []cc.Resource{{Table: tpcc.TDistrict, Key: tpcc.DistrictKey(o.W, o.D)}}
}
func (o *InsertOrder) Run(e *Exec) error {
	p := e.DB.Partition(o.W)
	dt := p.TableByID(tpcc.TDistrictID)
	slot, ok := dt.Lookup(tpcc.DistrictKey(o.W, o.D))
	e.Charge(e.Costs.IndexLookup)
	if !ok {
		panic(fmt.Sprintf("oltp: district %d/%d missing", o.W, o.D))
	}
	const nextCol = tpcc.ColDNextOID
	oid := dt.Field(slot, nextCol).I
	e.Undo.LogUpdate(dt, slot, nextCol, dt.UpdateAt(slot, nextCol, storage.Int(oid+1)))
	e.Charge(e.Costs.RecordUpdate)

	it := p.TableByID(tpcc.TItemID)
	ot := p.TableByID(tpcc.TOrdersID)
	if _, err := ot.Insert(tpcc.OrderKey(o.W, o.D, oid), storage.Row{
		storage.Int(int64(o.W)), storage.Int(int64(o.D)), storage.Int(oid),
		storage.Int(int64(o.C)), storage.Int(o.Year), storage.Int(0),
		storage.Int(int64(len(o.Lines))),
	}); err != nil {
		panic(err)
	}
	e.Undo.LogInsert(ot, tpcc.OrderKey(o.W, o.D, oid))
	e.Charge(e.Costs.RecordInsert)

	not := p.TableByID(tpcc.TNewOrderID)
	if _, err := not.Insert(tpcc.NewOrderKey(o.W, o.D, oid), storage.Row{
		storage.Int(int64(o.W)), storage.Int(int64(o.D)), storage.Int(oid),
	}); err != nil {
		panic(err)
	}
	e.Undo.LogInsert(not, tpcc.NewOrderKey(o.W, o.D, oid))
	e.Charge(e.Costs.RecordInsert)

	olt := p.TableByID(tpcc.TOrderLineID)
	for i, l := range o.Lines {
		if l.Item < 0 {
			e.Charge(e.Costs.IndexLookup) // the failed item probe
			return ErrAbort
		}
		islot, ok := it.Lookup(tpcc.ItemKey(l.Item))
		e.Charge(e.Costs.IndexLookup)
		if !ok {
			return ErrAbort
		}
		price := it.Field(islot, tpcc.ColIPrice).F
		e.Charge(e.Costs.RecordRead)
		key := tpcc.OrderLineKey(o.W, o.D, oid, i+1)
		if _, err := olt.Insert(key, storage.Row{
			storage.Int(int64(o.W)), storage.Int(int64(o.D)), storage.Int(oid),
			storage.Int(int64(i + 1)), storage.Int(int64(l.Item)),
			storage.Int(int64(l.SupplyW)), storage.Int(int64(l.Qty)),
			storage.Float(price * float64(l.Qty)),
		}); err != nil {
			panic(err)
		}
		e.Undo.LogInsert(olt, key)
		e.Charge(e.Costs.RecordInsert)
	}
	return nil
}

// UpdateStock decrements stock quantities at one supply warehouse for the
// lines it supplies.
type UpdateStock struct {
	SupplyW int
	Lines   []tpcc.NewOrderLine // only lines with SupplyW == this warehouse
}

func (o *UpdateStock) Warehouse() int { return o.SupplyW }
func (o *UpdateStock) Class() Class   { return ClassStock }
func (o *UpdateStock) Locks() []cc.Resource {
	out := make([]cc.Resource, 0, len(o.Lines))
	for _, l := range o.Lines {
		if l.Item >= 0 {
			out = append(out, cc.Resource{Table: tpcc.TStock, Key: tpcc.StockKey(o.SupplyW, l.Item)})
		}
	}
	return out
}
func (o *UpdateStock) Run(e *Exec) error {
	t := e.DB.Partition(o.SupplyW).TableByID(tpcc.TStockID)
	const qCol, yCol, cCol = tpcc.ColSQuantity, tpcc.ColSYTD, tpcc.ColSOrderCnt
	for _, l := range o.Lines {
		if l.Item < 0 {
			continue // aborting txns never reach here in AnyDB; baseline aborts earlier
		}
		slot, ok := t.Lookup(tpcc.StockKey(o.SupplyW, l.Item))
		e.Charge(e.Costs.IndexLookup)
		if !ok {
			panic(fmt.Sprintf("oltp: stock %d/%d missing", o.SupplyW, l.Item))
		}
		q := t.Field(slot, qCol).I - int64(l.Qty)
		if q < 10 {
			q += 91
		}
		e.Undo.LogUpdate(t, slot, qCol, t.UpdateAt(slot, qCol, storage.Int(q)))
		e.Undo.LogUpdate(t, slot, yCol, t.UpdateAt(slot, yCol, storage.Int(t.Field(slot, yCol).I+int64(l.Qty))))
		e.Undo.LogUpdate(t, slot, cCol, t.UpdateAt(slot, cCol, storage.Int(t.Field(slot, cCol).I+1)))
		e.Charge(e.Costs.RecordUpdate)
	}
	return nil
}

// ---- Program builder: Figure 4a's logical disaggregation ----

// orderYear is the o_entry_d stamped on runtime-inserted orders; keeping
// it above the CH query's date filter means HTAP analytics see fresh
// orders.
const orderYear = 2019

// Program converts a generated transaction into its ordered operation
// list.
func Program(t tpcc.Txn) []Op { return ProgramAppend(nil, &t) }

// paymentProgram holds the four payment ops in one block, so building a
// payment program costs one allocation instead of four boxed ops — and
// with the pool below, zero in steady state. The block's lifecycle is
// tied to the segments carrying its ops: refs counts the segments the
// dispatcher routed; each freeSegment decrements it and the last one
// recycles the block (see pool.go). Blocks built outside the dispatch
// path (Program, the DBx1000 baseline, WAL replay) are simply never
// freed and fall back to the GC like every other missed pool free.
type paymentProgram struct {
	w    UpdateWarehouseYTD
	d    UpdateDistrictYTD
	c    PayCustomer
	h    InsertHistory
	refs atomic.Int32
}

// ProgramAppend appends the transaction's ordered operation list to ops
// (which may be a reused scratch slice) and returns it. The returned
// ops reference freshly built operation values; the input transaction
// is not retained beyond its Lines slices.
func ProgramAppend(ops []Op, t *tpcc.Txn) []Op {
	ops, _ = programInto(ops, t)
	return ops
}

// programInto is ProgramAppend plus the pooled payment block the ops
// were carved from (nil for new-order programs, whose op shapes vary).
// The dispatcher uses it to set the block's segment refcount and thread
// the block through the segments for recycling (FreeSegment returns it
// to progPool at the last segment's death).
func programInto(ops []Op, t *tpcc.Txn) ([]Op, *paymentProgram) {
	switch t.Kind {
	case tpcc.TxnPayment:
		p := t.Payment
		cref := int64(p.C)
		if p.ByLast {
			cref = -int64(p.Last) - 1
		}
		// Every field of the pooled block is overwritten here; refs is
		// re-armed by the dispatcher once it knows the segment count.
		pp := progPool.Get().(*paymentProgram)
		pp.w = UpdateWarehouseYTD{W: p.W, Amount: p.Amount}
		pp.d = UpdateDistrictYTD{W: p.W, D: p.D, Amount: p.Amount}
		pp.c = PayCustomer{W: p.CW, D: p.CD, C: p.C, ByLast: p.ByLast, Last: p.Last, Amount: p.Amount}
		pp.h = InsertHistory{W: p.W, D: p.D, CW: p.CW, CD: p.CD, CRef: cref, Amount: p.Amount}
		return append(ops, &pp.w, &pp.d, &pp.c, &pp.h), pp
	case tpcc.TxnNewOrder:
		no := t.NewOrder
		ops = append(ops, &InsertOrder{W: no.W, D: no.D, C: no.C, Lines: no.Lines, Year: orderYear})
		// Group lines by supply warehouse in first-seen order. Orders
		// have at most a handful of lines, so the quadratic scan beats
		// a map.
		for i, l := range no.Lines {
			dup := false
			for j := 0; j < i; j++ {
				if no.Lines[j].SupplyW == l.SupplyW {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			var lines []tpcc.NewOrderLine
			for j := i; j < len(no.Lines); j++ {
				if no.Lines[j].SupplyW == l.SupplyW {
					lines = append(lines, no.Lines[j])
				}
			}
			ops = append(ops, &UpdateStock{SupplyW: l.SupplyW, Lines: lines})
		}
		return ops, nil
	default:
		panic("oltp: unknown transaction kind")
	}
}

// Valid pre-validates a transaction the way AnyDB's dispatcher does
// (Calvin-style reconnaissance): new-order item ids are checked against
// the replicated item catalog before any event is dispatched, so
// distributed execution never needs cross-AC undo. It returns false for
// the §2.4.1.4 rollback case.
func Valid(t *tpcc.Txn) bool {
	if t.Kind != tpcc.TxnNewOrder {
		return true
	}
	for _, l := range t.NewOrder.Lines {
		if l.Item < 0 {
			return false
		}
	}
	return true
}
