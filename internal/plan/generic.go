package plan

import (
	"fmt"
	"sort"
	"strings"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/sim"
	"anydb/internal/sql"
	"anydb/internal/storage"
)

// GenericPlan is the compiled, routed form of a SQL query: shared-scan
// registrations over the base tables (with grouped aggregates pushed
// into the scan when the query is single-table), an optional left-deep
// chain of hash joins, and one generic sink that merges, orders and
// limits the result. The facade compiles it client-side (so errors
// surface synchronously) and the QO AC emits it as event/data streams,
// beaming the scans ahead of the compile window when asked.
type GenericPlan struct {
	Query       core.QueryID
	CompileTime sim.Time
	Beam        BeamMode
	Parts       []int

	scans   []scanTemplate
	joins   []*olap.JoinSpec
	joinACs []core.ACID // where each join executes
	sinkAC  core.ACID
	sink    *olap.SinkSpec
}

// scanTemplate is one table's shared-scan registration, instantiated
// per partition at emission.
type scanTemplate struct {
	table   string
	tableID storage.TableID // interned handle the emitted specs carry
	filters []olap.Predicate
	cols    []string       // streaming projection
	groupBy []string       // aggregate pushdown
	aggs    []olap.AggExpr // aggregate pushdown
	// dictGroups marks the grouping dictionary-eligible (no float group
	// columns): the scan may fold into a dense packed-code accumulator
	// instead of a per-row map probe.
	dictGroups bool
	out        core.StreamID
	to         core.ACID
}

// tableInfo is the planner's view of one FROM entry.
type tableInfo struct {
	name     string
	schema   *storage.Schema
	filters  []olap.Predicate
	estRows  float64
	joinCols []string // columns this table contributes to join keys
}

// outItem is one resolved select item.
type outItem struct {
	agg   sql.AggKind
	table string // resolved table ("" for COUNT(*))
	col   string // unqualified source column ("" for COUNT(*))
	name  string // output column name
	kind  storage.Kind
}

// CompileSQL turns a parsed query into a routed plan. compute lists the
// ACs that host the joins and the final sink (round-robin); owner
// placement of scans happens at emission via the topology.
func CompileSQL(cat *storage.Catalog, q *sql.Query, qid core.QueryID,
	parts []int, compute []core.ACID, notify core.ACID) (*GenericPlan, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("plan: no tables")
	}
	if len(compute) == 0 {
		return nil, fmt.Errorf("plan: no compute ACs")
	}

	// Resolve tables and filters.
	infos := make(map[string]*tableInfo, len(q.Tables))
	var order []string
	for _, t := range q.Tables {
		schema := cat.Schema(t)
		if schema == nil {
			return nil, fmt.Errorf("plan: unknown table %q", t)
		}
		if _, dup := infos[t]; dup {
			return nil, fmt.Errorf("plan: table %q listed twice (self-joins unsupported)", t)
		}
		infos[t] = &tableInfo{name: t, schema: schema}
		order = append(order, t)
	}
	for _, f := range q.Filters {
		ti, err := resolveColumn(infos, order, f.Table, f.Col)
		if err != nil {
			return nil, err
		}
		pred, err := toPredicate(ti.schema, f)
		if err != nil {
			return nil, err
		}
		ti.filters = append(ti.filters, pred)
	}
	for _, jc := range q.Joins {
		for _, side := range []struct{ t, c string }{
			{jc.LeftTable, jc.LeftCol}, {jc.RightTable, jc.RightCol},
		} {
			ti, err := resolveColumn(infos, order, side.t, side.c)
			if err != nil {
				return nil, err
			}
			// The hash join keys on int columns only.
			if k := ti.schema.Cols[ti.schema.MustCol(side.c)].Kind; k != storage.KInt {
				return nil, fmt.Errorf("plan: join column %s.%s is %s; only int columns can be join keys", ti.name, side.c, k)
			}
			ti.joinCols = append(ti.joinCols, side.c)
		}
	}

	// Resolve select items, GROUP BY, ORDER BY.
	items, err := resolveItems(infos, order, q)
	if err != nil {
		return nil, err
	}
	groupTables, groupCols, err := resolveGroupBy(infos, order, q)
	if err != nil {
		return nil, err
	}
	if err := checkGrouping(items, groupCols, q); err != nil {
		return nil, err
	}
	if len(order) > 1 {
		if err := checkJoinUnambiguous(infos, order, items, groupCols); err != nil {
			return nil, err
		}
	}

	// Output shape: names uniquified, kinds fixed, plus where each
	// output column comes from in the sink's internal layout.
	outCols := make([]string, len(items))
	outKinds := make([]storage.Kind, len(items))
	seen := map[string]int{}
	for i, it := range items {
		name := it.name
		if n := seen[name]; n > 0 {
			name = fmt.Sprintf("%s_%d", name, n+1)
		}
		seen[it.name]++
		outCols[i] = name
		outKinds[i] = it.kind
	}
	outSrc, aggs := layoutAgg(items, groupCols)
	orderKeys, err := resolveOrderBy(infos, order, q, items)
	if err != nil {
		return nil, err
	}

	// Estimate filtered cardinalities from catalog statistics.
	for _, ti := range infos {
		ti.estRows = estimateRows(cat, ti)
	}

	// Left-deep join order: start from the smallest estimate, then
	// greedily attach the smallest table connected by a join edge.
	joined := map[string]bool{}
	var chain []string
	remaining := append([]string(nil), order...)
	sort.SliceStable(remaining, func(i, j int) bool {
		return infos[remaining[i]].estRows < infos[remaining[j]].estRows
	})
	chain = append(chain, remaining[0])
	joined[remaining[0]] = true
	remaining = remaining[1:]
	for len(remaining) > 0 {
		picked := -1
		for i, t := range remaining {
			if connected(q.Joins, joined, t) {
				picked = i
				break
			}
		}
		if picked < 0 {
			return nil, fmt.Errorf("plan: table %q has no join condition to the rest (cross joins unsupported)", remaining[0])
		}
		chain = append(chain, remaining[picked])
		joined[remaining[picked]] = true
		remaining = append(remaining[:picked], remaining[picked+1:]...)
	}

	// Columns each scan must ship downstream: join keys, projected
	// output, grouping columns, aggregate sources. (Single-table
	// aggregate plans push the aggregation into the scan instead and
	// ship only partial-aggregate rows.)
	needed := make(map[string]map[string]bool)
	for _, t := range order {
		needed[t] = make(map[string]bool)
	}
	for _, jc := range q.Joins {
		needed[jc.LeftTable][jc.LeftCol] = true
		needed[jc.RightTable][jc.RightCol] = true
	}
	for _, it := range items {
		if it.col != "" {
			needed[it.table][it.col] = true
		}
	}
	for i, t := range groupTables {
		needed[t][groupCols[i]] = true
	}
	for t, cols := range needed {
		if len(cols) == 0 {
			// Ship at least one column so batches have shape.
			needed[t][infos[t].schema.Cols[0].Name] = true
		}
	}

	// Wire streams: scan of chain[i] → stream base+i+1; join_i output →
	// stream base+32+i.
	p := &GenericPlan{Query: qid, Parts: parts}
	base := core.StreamID(uint64(qid) * 64)
	scanStream := func(i int) core.StreamID { return base + core.StreamID(i) + 1 }
	joinStream := func(i int) core.StreamID { return base + 32 + core.StreamID(i) }

	acOf := func(i int) core.ACID { return compute[i%len(compute)] }

	sink := &olap.SinkSpec{
		Query:    qid,
		OutCols:  outCols,
		OutKinds: outKinds,
		OutSrc:   outSrc,
		OrderBy:  orderKeys,
		Limit:    q.Limit,
		Notify:   notify,
	}

	if len(chain) == 1 {
		t := chain[0]
		if len(aggs) > 0 {
			// Aggregate pushdown: the shared scan folds the grouped
			// aggregates per partition; the sink merges partials. The
			// grouping is dictionary-eligible when no group column is a
			// float (ints and strings dictionary-encode in the chunk
			// cache; floats never do).
			dict := len(groupCols) > 0
			for _, g := range groupCols {
				if infos[t].schema.Cols[infos[t].schema.MustCol(g)].Kind == storage.KFloat {
					dict = false
				}
			}
			p.scans = append(p.scans, scanTemplate{
				table: t, tableID: infos[t].schema.ID, filters: infos[t].filters,
				groupBy: groupCols, aggs: aggs, dictGroups: dict,
				out: scanStream(0), to: acOf(0),
			})
			sink.GroupBy = groupCols
			sink.Aggs = aggs
			sink.MergePartials = true
		} else {
			p.scans = append(p.scans, scanTemplate{
				table: t, tableID: infos[t].schema.ID, filters: infos[t].filters,
				cols: setToSlice(needed[t]),
				out:  scanStream(0), to: acOf(0),
			})
			sink.Cols = itemCols(items)
		}
		sink.In = scanStream(0)
		p.sinkAC = acOf(0)
		p.sink = sink
		return p, nil
	}

	// Accumulated (build) side starts as chain[0]'s scan; join_i runs on
	// compute AC J_i, builds on the accumulated stream and probes the
	// next table's scan. The last join's output stays local to feed the
	// sink.
	accSchemas := []*storage.Schema{scanSchema(infos[chain[0]], needed)}
	accStream := scanStream(0)
	joinAC := func(i int) core.ACID { return acOf(i - 1) } // J_i for i>=1
	p.scans = append(p.scans, scanTemplate{
		table: chain[0], tableID: infos[chain[0]].schema.ID,
		filters: infos[chain[0]].filters,
		cols:    setToSlice(needed[chain[0]]),
		out:     accStream, to: joinAC(1),
	})
	for i := 1; i < len(chain); i++ {
		t := chain[i]
		probeStream := scanStream(i)
		p.scans = append(p.scans, scanTemplate{
			table: t, tableID: infos[t].schema.ID, filters: infos[t].filters,
			cols: setToSlice(needed[t]),
			out:  probeStream, to: joinAC(i),
		})
		buildKeys, probeKeys, err := joinKeys(q.Joins, accSchemas, infos[t], joined, chain[:i])
		if err != nil {
			return nil, err
		}
		out := joinStream(i - 1)
		outTo := joinAC(i + 1) // the next join consumes our output...
		if i == len(chain)-1 {
			outTo = joinAC(i) // ...except the last, which feeds the local sink
		}
		p.joins = append(p.joins, &olap.JoinSpec{
			Query: qid,
			Build: accStream, BuildKey: buildKeys,
			Probe: probeStream, ProbeKey: probeKeys,
			Out: out, To: outTo, Producers: 1,
			Notify: core.NoAC, Label: fmt.Sprintf("join%d", i),
		})
		p.joinACs = append(p.joinACs, joinAC(i))
		accSchemas = append(accSchemas, scanSchema(infos[t], needed))
		accStream = out
	}
	if len(aggs) > 0 {
		// Aggregate over join output: the sink folds raw rows.
		sink.GroupBy = groupCols
		sink.Aggs = aggs
	} else {
		sink.Cols = itemCols(items)
	}
	sink.In = accStream
	p.sinkAC = joinAC(len(chain) - 1)
	p.sink = sink
	return p, nil
}

// resolveItems resolves each select item to its source table/column,
// output name and kind.
func resolveItems(infos map[string]*tableInfo, order []string, q *sql.Query) ([]outItem, error) {
	items := make([]outItem, 0, len(q.Items))
	for _, it := range q.Items {
		switch it.Agg {
		case sql.AggCount:
			items = append(items, outItem{agg: it.Agg, name: "count", kind: storage.KInt})
			continue
		case sql.AggNone, sql.AggSum, sql.AggMin, sql.AggMax, sql.AggAvg:
		default:
			return nil, fmt.Errorf("plan: unsupported aggregate %v", it.Agg)
		}
		ti, err := resolveColumn(infos, order, qualTable(it.Col), qualCol(it.Col))
		if err != nil {
			return nil, err
		}
		col := qualCol(it.Col)
		kind := ti.schema.Cols[ti.schema.MustCol(col)].Kind
		o := outItem{agg: it.Agg, table: ti.name, col: col, name: col, kind: kind}
		switch it.Agg {
		case sql.AggSum:
			if kind == storage.KStr {
				return nil, fmt.Errorf("plan: SUM over string column %q", col)
			}
			o.name = "sum_" + col
		case sql.AggAvg:
			if kind == storage.KStr {
				return nil, fmt.Errorf("plan: AVG over string column %q", col)
			}
			o.name, o.kind = "avg_"+col, storage.KFloat
		case sql.AggMin:
			o.name = "min_" + col
		case sql.AggMax:
			o.name = "max_" + col
		}
		items = append(items, o)
	}
	return items, nil
}

// resolveGroupBy resolves GROUP BY columns to (table, column) pairs.
func resolveGroupBy(infos map[string]*tableInfo, order []string, q *sql.Query) (tables, cols []string, err error) {
	for _, g := range q.GroupBy {
		ti, err := resolveColumn(infos, order, qualTable(g), qualCol(g))
		if err != nil {
			return nil, nil, err
		}
		tables = append(tables, ti.name)
		cols = append(cols, qualCol(g))
	}
	return tables, cols, nil
}

// checkGrouping enforces the usual aggregation rules.
func checkGrouping(items []outItem, groupCols []string, q *sql.Query) error {
	aggregated := false
	for _, it := range items {
		if it.agg != sql.AggNone {
			aggregated = true
		}
	}
	if !aggregated && len(groupCols) > 0 {
		return fmt.Errorf("plan: GROUP BY without aggregates is unsupported")
	}
	if !aggregated {
		return nil
	}
	for _, it := range items {
		if it.agg != sql.AggNone {
			continue
		}
		found := false
		for _, g := range groupCols {
			if g == it.col {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("plan: column %q must appear in GROUP BY", it.col)
		}
	}
	return nil
}

// checkJoinUnambiguous rejects queries whose output/grouping columns
// exist in more than one joined table: the join output schema renames
// colliding right-side columns, so the sink could silently bind the
// wrong one.
func checkJoinUnambiguous(infos map[string]*tableInfo, order []string, items []outItem, groupCols []string) error {
	check := func(col string) error {
		if col == "" {
			return nil
		}
		n := 0
		for _, t := range order {
			if infos[t].schema.Col(col) >= 0 {
				n++
			}
		}
		if n > 1 {
			return fmt.Errorf("plan: column %q exists in multiple joined tables", col)
		}
		return nil
	}
	for _, it := range items {
		if err := check(it.col); err != nil {
			return err
		}
	}
	for _, g := range groupCols {
		if err := check(g); err != nil {
			return err
		}
	}
	return nil
}

// layoutAgg derives the aggregate list (in select order) and the OutSrc
// mapping from output columns onto the sink's internal layout (group
// values first, then finalized aggregates).
func layoutAgg(items []outItem, groupCols []string) (outSrc []int, aggs []olap.AggExpr) {
	aggregated := false
	for _, it := range items {
		if it.agg != sql.AggNone {
			aggregated = true
		}
	}
	if !aggregated {
		return nil, nil
	}
	outSrc = make([]int, len(items))
	for i, it := range items {
		if it.agg == sql.AggNone {
			for g, col := range groupCols {
				if col == it.col {
					outSrc[i] = g
					break
				}
			}
			continue
		}
		outSrc[i] = len(groupCols) + len(aggs)
		aggs = append(aggs, olap.AggExpr{Fn: aggFn(it.agg), Col: it.col})
	}
	return outSrc, aggs
}

// resolveOrderBy maps ORDER BY terms onto output column indexes: each
// term must match a select item (same aggregate, same column).
func resolveOrderBy(infos map[string]*tableInfo, order []string, q *sql.Query, items []outItem) ([]olap.OrderKey, error) {
	var keys []olap.OrderKey
	for _, oi := range q.OrderBy {
		col := qualCol(oi.Col)
		table := qualTable(oi.Col)
		if oi.Agg != sql.AggCount && table != "" {
			// Normalize a qualified reference to its resolved table so it
			// matches the (also resolved) select item.
			ti, err := resolveColumn(infos, order, table, col)
			if err != nil {
				return nil, err
			}
			table = ti.name
		}
		idx := -1
		for i, it := range items {
			if it.agg != oi.Agg {
				continue
			}
			if oi.Agg == sql.AggCount || (it.col == col && (table == "" || it.table == table)) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("plan: ORDER BY term (at offset %d) must appear in SELECT", oi.Pos)
		}
		keys = append(keys, olap.OrderKey{Col: idx, Desc: oi.Desc})
	}
	return keys, nil
}

// aggFn maps the parser's aggregate kind onto the operator plane's.
func aggFn(a sql.AggKind) olap.AggFn {
	switch a {
	case sql.AggCount:
		return olap.AggCount
	case sql.AggSum:
		return olap.AggSum
	case sql.AggMin:
		return olap.AggMin
	case sql.AggMax:
		return olap.AggMax
	case sql.AggAvg:
		return olap.AggAvg
	}
	panic(fmt.Sprintf("plan: no aggregate mapping for %v", a))
}

// itemCols returns the (unqualified) source columns of a plain
// projection, in select order.
func itemCols(items []outItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.col
	}
	return out
}

// NotifyJoins makes every join report EvOpDone instrumentation (build
// and probe completion, labelled "join<i>/build" and "join<i>/probe") to
// ac. CompileSQL leaves joins silent; the virtual-time Figure 6 harness
// times the join phases from these events.
func (p *GenericPlan) NotifyJoins(ac core.ACID) {
	for _, js := range p.joins {
		js.Notify = ac
	}
}

// Describe renders the routed plan as a deterministic multi-line
// summary (golden-test support and EXPLAIN-style debugging).
func (p *GenericPlan) Describe() string {
	var b strings.Builder
	for i := range p.scans {
		sc := &p.scans[i]
		fmt.Fprintf(&b, "scan %s parts=%d", sc.table, len(p.Parts))
		if len(sc.filters) > 0 {
			fmt.Fprintf(&b, " filters=%d", len(sc.filters))
		}
		if len(sc.aggs) > 0 {
			fmt.Fprintf(&b, " pushdown group=%v", sc.groupBy)
			if sc.dictGroups {
				b.WriteString(" dict")
			}
			fmt.Fprintf(&b, " aggs=%s", aggList(sc.aggs))
		} else {
			fmt.Fprintf(&b, " cols=%v", sc.cols)
		}
		fmt.Fprintf(&b, " -> s%d@ac%d\n", sc.out, sc.to)
	}
	for i, js := range p.joins {
		fmt.Fprintf(&b, "%s build=s%d%v probe=s%d%v @ac%d -> s%d@ac%d\n",
			js.Label, js.Build, js.BuildKey, js.Probe, js.ProbeKey, p.joinACs[i], js.Out, js.To)
	}
	s := p.sink
	fmt.Fprintf(&b, "sink in=s%d", s.In)
	if len(s.Aggs) > 0 {
		mode := "fold"
		if s.MergePartials {
			mode = "merge"
		}
		fmt.Fprintf(&b, " %s group=%v aggs=%s", mode, s.GroupBy, aggList(s.Aggs))
	} else {
		fmt.Fprintf(&b, " collect cols=%v", s.Cols)
	}
	if len(s.OrderBy) > 0 {
		fmt.Fprintf(&b, " order=%v", s.OrderBy)
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " limit=%d", s.Limit)
	}
	fmt.Fprintf(&b, " out=%v @ac%d\n", s.OutCols, p.sinkAC)
	return b.String()
}

func aggList(aggs []olap.AggExpr) string {
	parts := make([]string, len(aggs))
	for i, a := range aggs {
		if a.Col == "" {
			parts[i] = a.Fn.String()
		} else {
			parts[i] = a.Fn.String() + "(" + a.Col + ")"
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ---- helpers ----

func resolveColumn(infos map[string]*tableInfo, order []string, table, col string) (*tableInfo, error) {
	if table != "" {
		ti, ok := infos[table]
		if !ok {
			return nil, fmt.Errorf("plan: unknown table %q", table)
		}
		if ti.schema.Col(col) < 0 {
			return nil, fmt.Errorf("plan: no column %q in table %q", col, table)
		}
		return ti, nil
	}
	var found *tableInfo
	for _, t := range order {
		if infos[t].schema.Col(col) >= 0 {
			if found != nil {
				return nil, fmt.Errorf("plan: column %q is ambiguous", col)
			}
			found = infos[t]
		}
	}
	if found == nil {
		return nil, fmt.Errorf("plan: unknown column %q", col)
	}
	return found, nil
}

func toPredicate(schema *storage.Schema, f sql.Filter) (olap.Predicate, error) {
	kind := schema.Cols[schema.MustCol(f.Col)].Kind
	intOnly := func(op string) error {
		if kind != storage.KInt {
			return fmt.Errorf("plan: %s supported on int columns only (%q)", op, f.Col)
		}
		return nil
	}
	switch f.Op {
	case sql.OpLikePrefix:
		if kind != storage.KStr {
			return olap.Predicate{}, fmt.Errorf("plan: LIKE on non-string column %q", f.Col)
		}
		return olap.Predicate{Col: f.Col, Kind: olap.PredPrefix, Prefix: f.Str}, nil
	case sql.OpGe:
		if err := intOnly(">="); err != nil {
			return olap.Predicate{}, err
		}
		return olap.Predicate{Col: f.Col, Kind: olap.PredGEInt, MinI: int64(f.Num)}, nil
	case sql.OpEq:
		if f.IsStr {
			if kind != storage.KStr {
				return olap.Predicate{}, fmt.Errorf("plan: string comparison on %s column %q", kind, f.Col)
			}
			return olap.Predicate{Col: f.Col, Kind: olap.PredEqStr, Str: f.Str}, nil
		}
		if err := intOnly("="); err != nil {
			return olap.Predicate{}, err
		}
		return olap.Predicate{Col: f.Col, Kind: olap.PredEqInt, MinI: int64(f.Num)}, nil
	case sql.OpLt:
		if err := intOnly("<"); err != nil {
			return olap.Predicate{}, err
		}
		return olap.Predicate{Col: f.Col, Kind: olap.PredLTInt, MinI: int64(f.Num)}, nil
	case sql.OpGt:
		if err := intOnly(">"); err != nil {
			return olap.Predicate{}, err
		}
		return olap.Predicate{Col: f.Col, Kind: olap.PredGEInt, MinI: int64(f.Num) + 1}, nil
	case sql.OpLe:
		if err := intOnly("<="); err != nil {
			return olap.Predicate{}, err
		}
		return olap.Predicate{Col: f.Col, Kind: olap.PredLTInt, MinI: int64(f.Num) + 1}, nil
	case sql.OpNe:
		if err := intOnly("<>"); err != nil {
			return olap.Predicate{}, err
		}
		return olap.Predicate{Col: f.Col, Kind: olap.PredNeInt, MinI: int64(f.Num)}, nil
	}
	return olap.Predicate{}, fmt.Errorf("plan: unsupported operator")
}

// estimateRows multiplies the table's row count by per-filter
// selectivities from the catalog statistics (optimizer defaults when
// never analyzed).
func estimateRows(cat *storage.Catalog, ti *tableInfo) float64 {
	st := cat.Stats(ti.name)
	rows := 1000.0
	if st != nil {
		rows = float64(st.Rows)
	}
	for _, f := range ti.filters {
		sel := 0.3
		if st != nil {
			switch f.Kind {
			case olap.PredPrefix:
				sel = st.SelectivityPrefix(f.Col, f.Prefix)
			case olap.PredGEInt:
				cs := st.Col(f.Col)
				if cs != nil {
					sel = st.SelectivityRange(f.Col, f.MinI, cs.MaxI)
				}
			case olap.PredLTInt:
				cs := st.Col(f.Col)
				if cs != nil {
					sel = st.SelectivityRange(f.Col, cs.MinI, f.MinI-1)
				}
			case olap.PredEqInt, olap.PredEqStr:
				sel = st.SelectivityEq(f.Col)
			case olap.PredNeInt:
				sel = 1 - st.SelectivityEq(f.Col)
			}
		}
		rows *= sel
	}
	return rows
}

func connected(joins []sql.JoinCond, joined map[string]bool, t string) bool {
	for _, jc := range joins {
		if (joined[jc.LeftTable] && jc.RightTable == t) ||
			(joined[jc.RightTable] && jc.LeftTable == t) {
			return true
		}
	}
	return false
}

// joinKeys collects the equi-join columns between the accumulated side
// (tables in chainSoFar) and table ti.
func joinKeys(joins []sql.JoinCond, accSchemas []*storage.Schema, ti *tableInfo,
	joined map[string]bool, chainSoFar []string) (build, probe []string, err error) {
	inChain := make(map[string]bool, len(chainSoFar))
	for _, t := range chainSoFar {
		inChain[t] = true
	}
	for _, jc := range joins {
		switch {
		case inChain[jc.LeftTable] && jc.RightTable == ti.name:
			build = append(build, jc.LeftCol)
			probe = append(probe, jc.RightCol)
		case inChain[jc.RightTable] && jc.LeftTable == ti.name:
			build = append(build, jc.RightCol)
			probe = append(probe, jc.LeftCol)
		}
	}
	if len(build) == 0 {
		return nil, nil, fmt.Errorf("plan: no join keys for %q", ti.name)
	}
	if len(build) > 3 {
		return nil, nil, fmt.Errorf("plan: at most 3 join key columns supported")
	}
	return build, probe, nil
}

func scanSchema(ti *tableInfo, needed map[string]map[string]bool) *storage.Schema {
	cols := setToSlice(needed[ti.name])
	out := make([]storage.Column, len(cols))
	for i, c := range cols {
		out[i] = ti.schema.Cols[ti.schema.MustCol(c)]
	}
	return storage.NewSchema(ti.name+"_scan", out...)
}

func setToSlice(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func qualTable(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return s[:i]
		}
	}
	return ""
}

func qualCol(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return s[i+1:]
		}
	}
	return s
}
