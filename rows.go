package anydb

import (
	"errors"
	"fmt"
	"slices"

	"anydb/internal/olap"
	"anydb/internal/storage"
)

// ErrNoRows is returned by Row.Scan when QueryRow matched no rows.
var ErrNoRows = errors.New("anydb: no rows in result set")

// Rows is the streaming result set of Query. It iterates directly over
// the pooled column batches the sink produced — nothing is materialized
// as [][]any — and recycles each batch as soon as the cursor leaves it.
// Use it like database/sql:
//
//	rows, err := cluster.Query(ctx, "SELECT c_id, c_last FROM customer WHERE c_d_id = 1")
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var id int64
//		var last string
//		if err := rows.Scan(&id, &last); err != nil { ... }
//	}
//
// Rows is not safe for concurrent use. Close is idempotent and releases
// any batches the iteration did not reach.
type Rows struct {
	cols      []string
	batches   []*storage.Batch
	truncated bool
	bi, ri    int
	started   bool
	closed    bool
}

func newRows(res *olap.QueryResult) *Rows {
	return &Rows{cols: res.Cols, batches: res.Batches, truncated: res.Truncated}
}

// freeResult recycles a result set nobody will ever iterate (abandoned
// or unmatched waiters).
func freeResult(res *olap.QueryResult) {
	for _, b := range res.Batches {
		storage.FreeBatch(b)
	}
	res.Batches = nil
}

// Columns returns the result column names, in SELECT order, in a slice
// of the caller's: the names themselves belong to the statement's
// compiled plan, which later queries of the same text share.
func (r *Rows) Columns() []string { return slices.Clone(r.cols) }

// Next advances to the next row, reporting whether one exists. Batches
// behind the cursor are returned to the pool immediately.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	if r.started {
		r.ri++
	} else {
		r.started = true
	}
	for r.bi < len(r.batches) {
		b := r.batches[r.bi]
		if r.ri < b.Len() {
			return true
		}
		storage.FreeBatch(b)
		r.batches[r.bi] = nil
		r.bi++
		r.ri = 0
	}
	r.closed = true
	return false
}

// Scan copies the current row into dest, one pointer per column:
// *int64/*int for integer columns, *float64 (integers widen), *string,
// or *any for dynamic typing.
func (r *Rows) Scan(dest ...any) error {
	if r.closed || !r.started || r.bi >= len(r.batches) {
		return errors.New("anydb: Scan called without a successful Next")
	}
	if len(dest) != len(r.cols) {
		return fmt.Errorf("anydb: Scan got %d destinations for %d columns", len(dest), len(r.cols))
	}
	b := r.batches[r.bi]
	for i := range dest {
		if err := assignValue(dest[i], b.Value(r.ri, i), r.cols[i]); err != nil {
			return err
		}
	}
	return nil
}

// Err reports an error encountered during iteration. The event plane
// delivers results whole, so iteration itself cannot fail today; Err
// exists so callers can follow the database/sql idiom.
func (r *Rows) Err() error { return nil }

// Truncated reports whether the result set was cut off at the engine's
// collection cap.
func (r *Rows) Truncated() bool { return r.truncated }

// Close releases every batch the iteration did not consume. It is safe
// to call multiple times and after exhausting the rows.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	for ; r.bi < len(r.batches); r.bi++ {
		storage.FreeBatch(r.batches[r.bi])
		r.batches[r.bi] = nil
	}
	return nil
}

// Row is the single-row result of QueryRow; errors are deferred to Scan
// so calls chain like database/sql.
type Row struct {
	err  error
	cols []string
	vals []storage.Value
}

// Scan copies the row into dest (see Rows.Scan for supported types).
// It returns ErrNoRows when the query matched nothing.
func (r *Row) Scan(dest ...any) error {
	if r.err != nil {
		return r.err
	}
	if len(dest) != len(r.vals) {
		return fmt.Errorf("anydb: Scan got %d destinations for %d columns", len(dest), len(r.vals))
	}
	for i := range dest {
		if err := assignValue(dest[i], r.vals[i], r.cols[i]); err != nil {
			return err
		}
	}
	return nil
}

// Err returns the query error, if any, without consuming the row.
func (r *Row) Err() error { return r.err }

func assignValue(dest any, v storage.Value, col string) error {
	switch d := dest.(type) {
	case *int64:
		if v.Kind != storage.KInt {
			return fmt.Errorf("anydb: column %s is %s, not int", col, v.Kind)
		}
		*d = v.I
	case *int:
		if v.Kind != storage.KInt {
			return fmt.Errorf("anydb: column %s is %s, not int", col, v.Kind)
		}
		*d = int(v.I)
	case *float64:
		switch v.Kind {
		case storage.KFloat:
			*d = v.F
		case storage.KInt:
			*d = float64(v.I)
		default:
			return fmt.Errorf("anydb: column %s is %s, not float", col, v.Kind)
		}
	case *string:
		if v.Kind != storage.KStr {
			return fmt.Errorf("anydb: column %s is %s, not string", col, v.Kind)
		}
		*d = v.S
	case *any:
		switch v.Kind {
		case storage.KInt:
			*d = v.I
		case storage.KFloat:
			*d = v.F
		default:
			*d = v.S
		}
	default:
		return fmt.Errorf("anydb: unsupported Scan destination %T for column %s", dest, col)
	}
	return nil
}
