package plan

import (
	"fmt"
	"math"
	"slices"
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
	// Unfiltered makes every join probe its whole probe side, as the
	// paper's Figure 6 experiment does: the QO installs every scan
	// itself and no join filters its probe scan by its build keys (see
	// QO).
	Unfiltered bool

	scans   []scanTemplate
	joins   []*olap.JoinSpec
	joinACs []core.ACID // where each join executes
	sinkAC  core.ACID
	sink    *olap.SinkSpec
}

// scanTemplate is one table's shared-scan registration: spec is complete
// but for Part and Producers, which emission sets per partition. In a
// Template, spec carries no query (Query 0, Out relative to the query's
// stream base, To unset) and at is the position in the compute list of
// the AC it streams to; Bind sets the three.
type scanTemplate struct {
	table string
	spec  olap.SharedScanSpec
	at    int
}

// joinTemplate is one join of a Template: spec carries no query (Query
// 0, streams relative to the query's stream base, To unset), and at and
// to are the positions in the compute list of the AC the join runs on
// and of the AC its output goes to.
type joinTemplate struct {
	spec   olap.JoinSpec
	at, to int
}

// Template is a statement compiled against the catalog with no query
// bound to it: the join order, the scan templates, the joins with their
// keys, columns and labels, and the sink. Everything in it derives from
// the catalog and the statement alone, so one Template serves every
// query of its statement text while the catalog stays as it is. Stream
// ids are relative to a query's stream base, and ACs are positions in a
// compute list; Bind fills in both. A Template is immutable: every
// query's bound plan shares its read-only slices (filters, columns,
// keys, groupings, aggregates, output names), and Bind gives each query
// fresh spec structs for the fields a query sets.
type Template struct {
	scans  []scanTemplate
	joins  []joinTemplate
	sink   olap.SinkSpec
	sinkAt int
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
// placement of scans happens at emission via the topology. It is
// Compile, then Bind.
func CompileSQL(cat *storage.Catalog, q *sql.Query, qid core.QueryID,
	parts []int, compute []core.ACID, notify core.ACID) (*GenericPlan, error) {
	t, err := Compile(cat, q)
	if err != nil {
		return nil, err
	}
	if len(compute) == 0 {
		return nil, fmt.Errorf("plan: no compute ACs")
	}
	return t.Bind(qid, parts, compute, notify), nil
}

// Bind instantiates the template for query qid over partitions parts,
// placing the joins and the sink on compute (round-robin over the chain
// positions, which must not be empty) and reporting the result to
// notify. The plan gets its own spec structs; their slices are the
// template's, which nothing writes.
func (t *Template) Bind(qid core.QueryID, parts []int, compute []core.ACID, notify core.ACID) *GenericPlan {
	base := core.StreamID(uint64(qid) * 64) // each query owns 64 stream ids
	acOf := func(i int) core.ACID { return compute[i%len(compute)] }
	p := &GenericPlan{Query: qid, Parts: parts, scans: make([]scanTemplate, len(t.scans)),
		joins: make([]*olap.JoinSpec, len(t.joins)), joinACs: make([]core.ACID, len(t.joins)),
		sinkAC: acOf(t.sinkAt)}
	for i, sc := range t.scans {
		sc.spec.Query, sc.spec.Out, sc.spec.To = qid, base+sc.spec.Out, acOf(sc.at)
		p.scans[i] = sc
	}
	joins := make([]olap.JoinSpec, len(t.joins))
	for i, jt := range t.joins {
		js := &joins[i]
		*js = jt.spec
		js.Query, js.To = qid, acOf(jt.to)
		js.Build, js.Probe, js.Out = base+js.Build, base+js.Probe, base+js.Out
		p.joins[i], p.joinACs[i] = js, acOf(jt.at)
	}
	sink := t.sink
	sink.Query, sink.In, sink.Notify = qid, base+sink.In, notify
	p.sink = &sink
	return p
}

// Compile turns a parsed query into a Template: it resolves tables,
// columns and filters against the catalog, orders the joins by the
// catalog's statistics, and lays out the scans, joins and sink.
func Compile(cat *storage.Catalog, q *sql.Query) (*Template, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("plan: no tables")
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
	needed := readAfter(chain, 0, q.Joins, items, groupTables, groupCols)
	for _, t := range order {
		if len(needed[t]) == 0 {
			// Ship at least one column so batches have shape.
			needed[t] = map[string]bool{infos[t].schema.Cols[0].Name: true}
		}
	}

	// Wire streams: scan of chain[i] → stream base+i+1; join_i output →
	// stream base+32+i, base added at Bind.
	t := &Template{}
	scanStream := func(i int) core.StreamID { return core.StreamID(i) + 1 }
	joinStream := func(i int) core.StreamID { return 32 + core.StreamID(i) }

	t.sink = olap.SinkSpec{
		OutCols:  outCols,
		OutKinds: outKinds,
		OutSrc:   outSrc,
		OrderBy:  orderKeys,
		Limit:    q.Limit,
	}
	sink := &t.sink

	if len(chain) == 1 {
		c := chain[0]
		if len(aggs) > 0 {
			// Aggregate pushdown: the shared scan folds the grouped
			// aggregates per partition; the sink merges partials. The
			// grouping is dictionary-eligible when no group column is a
			// float (ints and strings dictionary-encode in the chunk
			// cache; floats never do).
			dict := len(groupCols) > 0
			for _, g := range groupCols {
				if infos[c].schema.Cols[infos[c].schema.MustCol(g)].Kind == storage.KFloat {
					dict = false
				}
			}
			t.scans = append(t.scans, scanTemplate{table: c, spec: olap.SharedScanSpec{
				Table: infos[c].schema.ID, Filters: infos[c].filters,
				GroupBy: groupCols, Aggs: aggs, DictGroups: dict,
				Out: scanStream(0),
			}})
			sink.GroupBy = groupCols
			sink.Aggs = aggs
			sink.MergePartials = true
		} else {
			t.scans = append(t.scans, scanTemplate{table: c, spec: olap.SharedScanSpec{
				Table: infos[c].schema.ID, Filters: infos[c].filters,
				Cols: setToSlice(needed[c]),
				Out:  scanStream(0),
			}})
			sink.Cols = itemCols(items)
		}
		sink.In = scanStream(0)
		return t, nil
	}

	// Accumulated (build) side starts as chain[0]'s scan; join_i runs on
	// compute AC J_i, builds on the accumulated stream and probes the
	// next table's scan. The last join's output stays local to feed the
	// sink. A join's output carries only the columns an operator after it
	// reads: a later join's key, or a sink column.
	accStream := scanStream(0)
	joinAt := func(i int) int { return i - 1 } // J_i for i>=1
	t.scans = append(t.scans, scanTemplate{table: chain[0], spec: olap.SharedScanSpec{
		Table:   infos[chain[0]].schema.ID,
		Filters: infos[chain[0]].filters,
		Cols:    setToSlice(needed[chain[0]]),
		Out:     accStream,
	}, at: joinAt(1)})
	for i := 1; i < len(chain); i++ {
		c := chain[i]
		probeStream := scanStream(i)
		t.scans = append(t.scans, scanTemplate{table: c, spec: olap.SharedScanSpec{
			Table: infos[c].schema.ID, Filters: infos[c].filters,
			Cols: setToSlice(needed[c]),
			Out:  probeStream,
		}, at: joinAt(i)})
		buildKeys, probeKeys, err := joinKeys(q.Joins, infos[c], chain[:i])
		if err != nil {
			return nil, err
		}
		read := readAfter(chain, i, q.Joins, items, groupTables, groupCols)
		var buildOut []string
		for _, bt := range chain[:i] {
			buildOut = append(buildOut, setToSlice(read[bt])...)
		}
		probeOut := setToSlice(read[c])
		if len(buildOut)+len(probeOut) == 0 {
			// Ship at least one column so batches have shape.
			probeOut = probeKeys[:1]
		}
		out := joinStream(i - 1)
		outTo := joinAt(i + 1) // the next join consumes our output...
		if i == len(chain)-1 {
			outTo = joinAt(i) // ...except the last, which feeds the local sink
		}
		t.joins = append(t.joins, joinTemplate{spec: olap.JoinSpec{
			Build: accStream, BuildKey: buildKeys,
			Probe: probeStream, ProbeKey: probeKeys,
			BuildOut: buildOut, ProbeOut: probeOut,
			Out: out, Producers: 1,
			Notify: core.NoAC, Label: fmt.Sprintf("join%d", i),
		}, at: joinAt(i), to: outTo})
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
	t.sinkAt = joinAt(len(chain) - 1)
	return t, nil
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
		sc := &p.scans[i].spec
		fmt.Fprintf(&b, "scan %s parts=%d", p.scans[i].table, len(p.Parts))
		if len(sc.Filters) > 0 {
			fmt.Fprintf(&b, " filters=%d", len(sc.Filters))
		}
		if len(sc.Aggs) > 0 {
			fmt.Fprintf(&b, " pushdown group=%v", sc.GroupBy)
			if sc.DictGroups {
				b.WriteString(" dict")
			}
			fmt.Fprintf(&b, " aggs=%s", aggList(sc.Aggs))
		} else {
			fmt.Fprintf(&b, " cols=%v", sc.Cols)
		}
		fmt.Fprintf(&b, " -> s%d@ac%d\n", sc.Out, sc.To)
	}
	for i, js := range p.joins {
		fmt.Fprintf(&b, "%s build=s%d%v probe=s%d%v out=%v+%v @ac%d -> s%d@ac%d\n",
			js.Label, js.Build, js.BuildKey, js.Probe, js.ProbeKey, js.BuildOut, js.ProbeOut, p.joinACs[i], js.Out, js.To)
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
	switch {
	case f.Op == sql.OpLikePrefix || f.IsStr && f.Op == sql.OpEq:
		if kind != storage.KStr {
			return olap.Predicate{}, fmt.Errorf("plan: string comparison on %s column %q", kind, f.Col)
		}
		p := olap.Predicate{Col: f.Col, Kind: olap.PredEqStr, Str: f.Str}
		if f.Op == sql.OpLikePrefix {
			p.Kind = olap.PredPrefix
		}
		return p, nil
	case kind != storage.KInt || f.IsStr:
		return olap.Predicate{}, fmt.Errorf("plan: unsupported comparison on %s column %q", kind, f.Col)
	}
	// An int comparison is one closed range: the literal's ceiling and
	// floor bound it, so a fractional literal compares exactly, and a
	// literal past int64 leaves the range empty (Lo > Hi) or whole.
	p := olap.Predicate{Col: f.Col, Kind: olap.PredIn, Lo: math.MinInt64, Hi: math.MaxInt64}
	if f.Op == sql.OpNe {
		p.Kind = olap.PredOut
	}
	if f.Num >= 1<<63 {
		if f.Op != sql.OpLt && f.Op != sql.OpLe {
			p.Lo, p.Hi = 1, 0
		}
		return p, nil
	}
	fl, ce := int64(math.Floor(f.Num)), int64(math.Ceil(f.Num))
	switch f.Op {
	case sql.OpGe:
		p.Lo = ce
	case sql.OpGt:
		p.Lo = fl + 1
	case sql.OpLe:
		p.Hi = fl
	case sql.OpLt:
		p.Hi = ce - 1
	default: // = and <>: the empty range for a fractional literal
		p.Lo, p.Hi = ce, fl
	}
	return p, nil
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
			switch {
			case f.Kind == olap.PredPrefix:
				sel = st.SelectivityPrefix(f.Col, f.Str)
			case f.Kind == olap.PredEqStr || f.Lo == f.Hi:
				sel = st.SelectivityEq(f.Col)
			default:
				sel = st.SelectivityRange(f.Col, f.Lo, f.Hi)
			}
			if f.Kind == olap.PredOut {
				sel = 1 - sel
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
func joinKeys(joins []sql.JoinCond, ti *tableInfo, chainSoFar []string) (build, probe []string, err error) {
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
	if len(build) > olap.MaxJoinKeys {
		return nil, nil, fmt.Errorf("plan: at most %d join key columns supported", olap.MaxJoinKeys)
	}
	return build, probe, nil
}

// readAfter returns, per table, the columns an operator after join i of
// chain reads (after its scan, for i = 0): the keys of the joins past i
// (a condition belongs to the join of its later table), and the sink's
// grouping, aggregate and projection columns.
func readAfter(chain []string, i int, joins []sql.JoinCond, items []outItem,
	groupTables, groupCols []string) map[string]map[string]bool {
	read := make(map[string]map[string]bool, len(chain))
	add := func(t, c string) {
		if read[t] == nil {
			read[t] = make(map[string]bool)
		}
		read[t][c] = true
	}
	for _, jc := range joins {
		if max(slices.Index(chain, jc.LeftTable), slices.Index(chain, jc.RightTable)) > i {
			add(jc.LeftTable, jc.LeftCol)
			add(jc.RightTable, jc.RightCol)
		}
	}
	for _, it := range items {
		if it.col != "" {
			add(it.table, it.col)
		}
	}
	for k, t := range groupTables {
		add(t, groupCols[k])
	}
	return read
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
