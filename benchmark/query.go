package main

import (
	"context"
	"fmt"
	"math"

	"anydb"
)

// digest is an inline FNV-1a so that checking an answer costs the
// client a few nanoseconds per cell, not a formatted write.
type digest uint64

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func (d *digest) str(s string) {
	h := uint64(*d)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	*d = digest(h)
}

func (d *digest) u64(v uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	*d = digest(h)
}

// answer digests one drained result set. static covers the cells no
// transaction of the benchmark changes (states, names, ids, row
// counts); full covers the ones payments move (balances). On read-only data both must repeat
// exactly; beside writers only static and the invariants on n do.
type answer struct {
	rows   int64
	n      int64 // COUNT(*) cell, or the sum of the per-group counts
	static uint64
	full   uint64
}

// drain iterates every row of a result of shape si, the way a client
// would, into typed destinations.
func drain(rows *anydb.Rows, si int) (answer, error) {
	var a answer
	st, fl := digest(fnvOffset), digest(fnvOffset)
	var (
		s     string
		n, id int64
		f     float64
	)
	for rows.Next() {
		var err error
		switch si {
		case 0: // group: c_state, COUNT(*), SUM(c_balance)
			if err = rows.Scan(&s, &n, &f); err == nil {
				a.n += n
				st.str(s)
				st.u64(uint64(n))
				fl.u64(math.Float64bits(f))
			}
		case 1, 2: // like, q3: COUNT(*)
			if err = rows.Scan(&n); err == nil {
				a.n = n
			}
		case 3: // topn: c_id, c_last, c_balance
			if err = rows.Scan(&id, &s, &f); err == nil {
				st.u64(uint64(id))
				st.str(s)
				fl.u64(math.Float64bits(f))
			}
		}
		if err != nil {
			return a, err
		}
		a.rows++
	}
	a.static, a.full = uint64(st), uint64(fl)
	return a, rows.Err()
}

// check compares got with the value computed before timing. exact is
// set on read-only data; beside writers the moving parts are held to
// their invariants instead: group counts still sum to the customer
// count, open orders only grow (the mix has no delivery), the top-n
// ids and names stand.
func check(si int, got, want answer, exact bool) bool {
	if exact {
		return got == want
	}
	if got.rows != want.rows || got.static != want.static {
		return false
	}
	if si == 2 {
		return got.n >= want.n
	}
	return got.n == want.n
}

// querier is what Cluster and Session both offer.
type querier interface {
	Query(ctx context.Context, text string) (*anydb.Rows, error)
}

// precompute runs each shape once, before any timing, for the values
// later answers are compared with.
func precompute(ctx context.Context, q querier, shapes []queryShape) ([]answer, error) {
	want := make([]answer, len(shapes))
	for si, sh := range shapes {
		rows, err := q.Query(ctx, sh.sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		want[si], err = drain(rows, si)
		rows.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
	}
	return want, nil
}
