// Package olap implements AnyDB's analytical operators as AnyComponent
// behaviors: a shared scan per (table, partition) that many queries
// register with and that actively pushes filtered, projected columnar
// batches (or pushed-down partial aggregates) into data streams, hash
// joins whose build and probe sides are separate streams (so either can
// be beamed ahead of time, §4), and one generic sink that aggregates,
// orders and limits the result. Operators are installed by EvInstallOp
// events; which AC they land on — co-located with storage (aggregated)
// or on another server (disaggregated) — is purely a routing decision.
package olap

import (
	"fmt"

	"anydb/internal/core"
	"anydb/internal/storage"
)

// PredKind selects a scan predicate.
type PredKind uint8

const (
	// PredNone passes every row.
	PredNone PredKind = iota
	// PredPrefix keeps rows whose string column starts with Prefix.
	PredPrefix
	// PredGEInt keeps rows whose int column is >= MinI.
	PredGEInt
	// PredLTInt keeps rows whose int column is < MinI.
	PredLTInt
	// PredEqInt keeps rows whose int column equals MinI.
	PredEqInt
	// PredNeInt keeps rows whose int column differs from MinI.
	PredNeInt
	// PredEqStr keeps rows whose string column equals Str.
	PredEqStr
)

// Predicate is a single-column filter (the paper's query needs prefix and
// range predicates; richer trees live in the plan package).
type Predicate struct {
	Col    string
	Kind   PredKind
	Prefix string
	Str    string
	MinI   int64
}

// JoinSpec instructs an AC to hash-join (inner equi-join) two incoming
// streams; each match emits the build row concatenated with the probe
// row. The build side is consumed entirely first (NeedClosed semantics);
// probe batches stream through afterwards — any probe data beamed early
// waits staged at the AC.
type JoinSpec struct {
	Query     core.QueryID
	Build     core.StreamID
	BuildKey  []string // join key columns in the build batch schema
	Probe     core.StreamID
	ProbeKey  []string
	Out       core.StreamID
	To        core.ACID
	Producers int
	// Notify receives EvOpDone events at build completion and probe
	// completion (the harness's Figure 6 instrumentation).
	Notify core.ACID
	Label  string
}

// QueryResult is the payload of EvQueryDone.
type QueryResult struct {
	Query core.QueryID
	// Rows is the result-row count.
	Rows int64
	// Cols and Batches carry the result set: pooled columnar batches, in
	// order, whose consumer frees them (or hands them to anydb.Rows,
	// which frees as the caller iterates). Truncated reports that the
	// sink capped the set at CollectCap rows.
	Cols      []string
	Batches   []*storage.Batch
	Truncated bool
}

// CollectCap bounds collected result sets; DefaultBatchRows is the
// target batch granularity of the data streams.
const (
	CollectCap       = 16384
	DefaultBatchRows = 1024
)

// OpDone is the payload of EvOpDone.
type OpDone struct {
	Query core.QueryID
	Label string // e.g. "join1/build", "join1/probe"
}

// Worker is the AC behavior executing installed operators; register it
// for EvInstallOp on every AC. The shared map holds the AC's live
// shared-scan cursors (sharedscan.go); it is only ever touched by the
// owning AC's handler, so it needs no lock.
type Worker struct {
	DB *storage.Database

	shared map[sharedKey]*sharedScan
}

// OnEvent implements core.Behavior.
func (w *Worker) OnEvent(ctx core.Context, ac *core.AC, ev *core.Event) {
	switch spec := ev.Payload.(type) {
	case *SharedScanSpec:
		w.attachShared(ctx, ev, spec)
	case *sharedScan:
		spec.step(ctx, w)
	case *JoinSpec:
		newJoin(ctx, ac, spec)
		core.FreeEvent(ev)
	case *SinkSpec:
		newSink(ctx, ac, spec)
		core.FreeEvent(ev)
	default:
		panic(fmt.Sprintf("olap: unknown operator spec %T", ev.Payload))
	}
}

// joinState is a two-phase hash join bound to one AC.
type joinState struct {
	spec  *JoinSpec
	ht    map[joinKey][]int32 // build key -> build row indexes
	build []*storage.Batch
	built bool
	out   *storage.Batch
}

type joinKey struct {
	a, b, c int64
}

func keyOf(batch *storage.Batch, row int, cols []int) joinKey {
	var k joinKey
	for i, c := range cols {
		v := batch.Cols[c].Ints[row]
		switch i {
		case 0:
			k.a = v
		case 1:
			k.b = v
		default:
			k.c = v
		}
	}
	return k
}

func newJoin(ctx core.Context, ac *core.AC, spec *JoinSpec) {
	j := &joinState{spec: spec, ht: make(map[joinKey][]int32)}
	// Consume the build side first; staged (beamed) batches replay
	// immediately inside Subscribe.
	ac.Subscribe(ctx, spec.Build, (*joinBuildSink)(j))
}

// joinBuildSink and joinProbeSink give the two phases distinct OnData
// methods over the same state.
type joinBuildSink joinState

func (j *joinBuildSink) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	st := (*joinState)(j)
	costs := ctx.Costs()
	if msg.Batch != nil {
		buildCost := costs.HashBuildRow
		if msg.Prehashed {
			// DPI flows hash rows in flight (§4 co-processor).
			buildCost = buildCost * 3 / 4
		}
		cols := colIdx(msg.Batch.Schema, st.spec.BuildKey)
		// Build rows are materialized at probe time, so the batch must
		// live until the probe side closes.
		bi := len(st.build)
		st.build = append(st.build, msg.Batch)
		for r := 0; r < msg.Batch.Len(); r++ {
			ctx.Charge(buildCost)
			k := keyOf(msg.Batch, r, cols)
			st.ht[k] = append(st.ht[k], int32(bi)<<16|int32(r))
		}
	}
	if msg.Last {
		st.built = true
		if st.spec.Notify != core.NoAC {
			done := core.GetEvent()
			done.Kind, done.Query = core.EvOpDone, st.spec.Query
			done.Payload = &OpDone{Query: st.spec.Query, Label: st.spec.Label + "/build"}
			ctx.Send(st.spec.Notify, done)
		}
		// Now attach the probe side; beamed probe data replays here.
		ac.Subscribe(ctx, st.spec.Probe, (*joinProbeSink)(j))
	}
}

type joinProbeSink joinState

func (j *joinProbeSink) OnData(ctx core.Context, ac *core.AC, msg *core.DataMsg) {
	st := (*joinState)(j)
	spec := st.spec
	costs := ctx.Costs()
	if msg.Batch != nil {
		probeCost := costs.HashProbeRow
		if msg.Prehashed {
			probeCost = probeCost * 3 / 4
		}
		cols := colIdx(msg.Batch.Schema, spec.ProbeKey)
		if st.out == nil {
			st.out = storage.GetBatch(outSchema(st, msg.Batch.Schema))
		}
		for r := 0; r < msg.Batch.Len(); r++ {
			ctx.Charge(probeCost)
			matches := st.ht[keyOf(msg.Batch, r, cols)]
			if len(matches) == 0 {
				continue
			}
			for _, m := range matches {
				b := st.build[m>>16]
				row := append(b.Row(int(m&0xffff)), msg.Batch.Row(r)...)
				st.out.AppendRow(row)
			}
			if st.out.Len() >= DefaultBatchRows {
				st.emit(ctx, false)
			}
		}
		// AppendRow/Row copy, so the probe batch dies here.
		storage.FreeBatch(msg.Batch)
	}
	if msg.Last {
		st.emit(ctx, true)
		// The join is over: release the build side and the hash table.
		for _, b := range st.build {
			storage.FreeBatch(b)
		}
		st.build, st.ht = nil, nil
		if spec.Notify != core.NoAC {
			done := core.GetEvent()
			done.Kind, done.Query = core.EvOpDone, spec.Query
			done.Payload = &OpDone{Query: spec.Query, Label: spec.Label + "/probe"}
			ctx.Send(spec.Notify, done)
		}
	}
}

// emit forwards the accumulated output batch (if any) as one pooled
// data message; the downstream consumer recycles both.
func (st *joinState) emit(ctx core.Context, last bool) {
	msg := core.GetDataMsg()
	msg.Stream, msg.Query, msg.Last, msg.Producers = st.spec.Out, st.spec.Query, last, st.spec.Producers
	if st.out != nil && st.out.Len() > 0 {
		msg.Batch = st.out
		if last {
			st.out = nil
		} else {
			st.out = storage.GetBatch(msg.Batch.Schema)
		}
	} else if last {
		storage.FreeBatch(st.out)
		st.out = nil
	}
	ctx.SendData(st.spec.To, msg)
}

func outSchema(st *joinState, probe *storage.Schema) *storage.Schema {
	if len(st.build) == 0 {
		return probe
	}
	return storage.ConcatSchema("join_out", st.build[0].Schema, probe)
}

func colIdx(s *storage.Schema, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.MustCol(n)
	}
	return out
}
