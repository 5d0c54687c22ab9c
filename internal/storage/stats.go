package storage

import "math"

// TableStats summarizes a table for the query optimizer: row count,
// per-column min/max/NDV, an equi-width histogram for integer columns and
// a value sample for string columns (prefix-selectivity estimation, e.g.
// c_state LIKE 'A%'). The paper's QO "comes up with an efficient
// execution plan like a traditional query optimizer" — these statistics
// are what it plans from.
type TableStats struct {
	Rows int64
	Cols []ColStats
}

// ColStats holds one column's statistics.
type ColStats struct {
	Name string
	Kind Kind

	MinI, MaxI int64 // int columns
	NDV        int64
	hist       []int64 // equi-width over [MinI, MaxI], int columns only

	sample      []string // string columns: up to sampleCap values
	sampleEvery int
}

const (
	histBuckets = 64
	sampleCap   = 512
)

// Analyze scans a table and produces fresh statistics.
func Analyze(t *Table) *TableStats {
	st := &TableStats{Cols: make([]ColStats, t.Schema.NumCols())}
	for i, c := range t.Schema.Cols {
		st.Cols[i] = ColStats{Name: c.Name, Kind: c.Kind}
	}

	// Pass 1: bounds, counts, distinct estimation via small maps
	// (capped to bound memory on big tables).
	distinct := make([]map[int64]struct{}, len(st.Cols))
	distinctS := make([]map[string]struct{}, len(st.Cols))
	for i := range st.Cols {
		switch st.Cols[i].Kind {
		case KInt:
			distinct[i] = make(map[int64]struct{})
		case KStr:
			distinctS[i] = make(map[string]struct{})
		}
	}
	const distinctCap = 1 << 16
	first := true
	t.Scan(func(_ int32, row Row) bool {
		st.Rows++
		for i := range row {
			cs := &st.Cols[i]
			switch cs.Kind {
			case KInt:
				v := row[i].I
				if first || v < cs.MinI {
					cs.MinI = v
				}
				if first || v > cs.MaxI {
					cs.MaxI = v
				}
				if len(distinct[i]) < distinctCap {
					distinct[i][v] = struct{}{}
				}
			case KStr:
				if len(distinctS[i]) < distinctCap {
					distinctS[i][row[i].S] = struct{}{}
				}
			}
		}
		first = false
		return true
	})
	for i := range st.Cols {
		switch st.Cols[i].Kind {
		case KInt:
			st.Cols[i].NDV = int64(len(distinct[i]))
		case KStr:
			st.Cols[i].NDV = int64(len(distinctS[i]))
		}
	}

	// Pass 2: histograms and samples.
	if st.Rows == 0 {
		return st
	}
	for i := range st.Cols {
		if st.Cols[i].Kind == KInt && st.Cols[i].MaxI > st.Cols[i].MinI {
			st.Cols[i].hist = make([]int64, histBuckets)
		}
		if st.Cols[i].Kind == KStr {
			every := int(st.Rows/sampleCap) + 1
			st.Cols[i].sampleEvery = every
		}
	}
	rowNo := 0
	t.Scan(func(_ int32, row Row) bool {
		for i := range row {
			cs := &st.Cols[i]
			switch {
			case cs.hist != nil:
				span := cs.MaxI - cs.MinI + 1
				b := (row[i].I - cs.MinI) * histBuckets / span
				cs.hist[b]++
			case cs.Kind == KStr && rowNo%cs.sampleEvery == 0 && len(cs.sample) < sampleCap:
				cs.sample = append(cs.sample, row[i].S)
			}
		}
		rowNo++
		return true
	})
	return st
}

// Col returns the stats for a named column, or nil.
func (s *TableStats) Col(name string) *ColStats {
	for i := range s.Cols {
		if s.Cols[i].Name == name {
			return &s.Cols[i]
		}
	}
	return nil
}

// SelectivityEq estimates the fraction of rows equal to v (1/NDV).
func (s *TableStats) SelectivityEq(col string) float64 {
	cs := s.Col(col)
	if cs == nil || cs.NDV == 0 {
		return 0.1 // optimizer default guess
	}
	return 1 / float64(cs.NDV)
}

// SelectivityRange estimates the fraction of rows with lo <= col <= hi
// for int columns, using the histogram when available. An int64 limit
// leaves that side unbounded: it is estimated from the column's own
// bound.
func (s *TableStats) SelectivityRange(col string, lo, hi int64) float64 {
	cs := s.Col(col)
	if cs == nil || cs.Kind != KInt || s.Rows == 0 {
		return 0.3
	}
	if lo == math.MinInt64 {
		lo = cs.MinI
	}
	if hi == math.MaxInt64 {
		hi = cs.MaxI
	}
	if lo > cs.MaxI || hi < cs.MinI {
		return 0
	}
	if cs.hist == nil {
		// Constant column or no histogram: uniform assumption.
		if cs.MaxI == cs.MinI {
			return 1
		}
		span := float64(cs.MaxI-cs.MinI) + 1
		width := float64(min64(hi, cs.MaxI)-max64(lo, cs.MinI)) + 1
		return clamp01(width / span)
	}
	span := cs.MaxI - cs.MinI + 1
	var hit int64
	for b, cnt := range cs.hist {
		bLo := cs.MinI + int64(b)*span/histBuckets
		bHi := cs.MinI + int64(b+1)*span/histBuckets - 1
		if bHi >= lo && bLo <= hi {
			hit += cnt
		}
	}
	return clamp01(float64(hit) / float64(s.Rows))
}

// SelectivityPrefix estimates the fraction of rows whose string column
// starts with prefix, from the sample.
func (s *TableStats) SelectivityPrefix(col, prefix string) float64 {
	cs := s.Col(col)
	if cs == nil || len(cs.sample) == 0 {
		return 1.0 / 26
	}
	match := 0
	for _, v := range cs.sample {
		if len(v) >= len(prefix) && v[:len(prefix)] == prefix {
			match++
		}
	}
	if match == 0 {
		return 0.5 / float64(len(cs.sample))
	}
	return float64(match) / float64(len(cs.sample))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
