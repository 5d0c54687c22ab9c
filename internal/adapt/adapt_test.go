package adapt

import (
	"testing"

	"anydb/internal/core"
	"anydb/internal/oltp"
	"anydb/internal/sim"
)

// fakeCtx drives the controller without an engine.
type fakeCtx struct {
	now   sim.Time
	costs sim.CostModel
	sent  []*core.Event
}

func newFakeCtx() *fakeCtx { return &fakeCtx{costs: sim.DefaultCosts()} }

func (c *fakeCtx) Self() core.ACID                   { return 5 }
func (c *fakeCtx) Now() sim.Time                     { return c.now }
func (c *fakeCtx) Charge(sim.Time)                   {}
func (c *fakeCtx) Costs() *sim.CostModel             { return &c.costs }
func (c *fakeCtx) Topology() *core.Topology          { return nil }
func (c *fakeCtx) Offloaded(core.ACID) bool          { return false }
func (c *fakeCtx) SendData(core.ACID, *core.DataMsg) {}
func (c *fakeCtx) Send(dst core.ACID, ev *core.Event) {
	if dst == core.ClientAC {
		c.sent = append(c.sent, ev)
	}
}

func (c *fakeCtx) decisions() []*Decision {
	var out []*Decision
	for _, ev := range c.sent {
		if ev.Kind == core.EvAdapt {
			out = append(out, ev.Payload.(*Decision))
		}
	}
	return out
}

func testOptions(start oltp.Policy) Options {
	return Options{
		Start:      start,
		Candidates: []oltp.Policy{oltp.SharedNothing, oltp.StreamingCC},
		Env:        Env{Executors: 4, Warehouses: 4},
	}
}

// feed delivers a report with the given per-warehouse admissions,
// advancing the fake clock by more than one window bucket per report
// so every report passes the evaluation rate limit.
func feed(ctrl *Controller, ctx *fakeCtx, byHome []int64) {
	ctx.now += 30 * sim.Microsecond
	var admitted int64
	for _, n := range byHome {
		admitted += n
	}
	ctrl.OnEvent(ctx, nil, &core.Event{Kind: core.EvSignal, Payload: &oltp.Report{
		Src: 0, At: ctx.now, Admitted: admitted, Committed: admitted, ByHome: byHome,
	}})
}

func TestControllerSwitchesOnSkew(t *testing.T) {
	ctx := newFakeCtx()
	ctrl := NewController(testOptions(oltp.SharedNothing))
	// Uniform load: shared-nothing stays.
	for i := 0; i < 30; i++ {
		feed(ctrl, ctx, []int64{16, 16, 16, 16})
	}
	if len(ctx.decisions()) != 0 {
		t.Fatalf("controller switched on a uniform workload: %+v", ctx.decisions()[0])
	}
	// All traffic collapses onto warehouse 0: streaming CC must win.
	for i := 0; i < 30; i++ {
		feed(ctrl, ctx, []int64{64, 0, 0, 0})
	}
	ds := ctx.decisions()
	if len(ds) != 1 {
		t.Fatalf("decisions = %d, want exactly 1 (hysteresis)", len(ds))
	}
	if ds[0].From != oltp.SharedNothing || ds[0].To != oltp.StreamingCC {
		t.Fatalf("decision = %v -> %v", ds[0].From, ds[0].To)
	}
	if ctrl.Current() != oltp.StreamingCC {
		t.Fatalf("current = %v", ctrl.Current())
	}
	// And back once the load spreads out again.
	for i := 0; i < 60; i++ {
		feed(ctrl, ctx, []int64{16, 16, 16, 16})
	}
	ds = ctx.decisions()
	if len(ds) != 2 || ds[1].To != oltp.SharedNothing {
		t.Fatalf("expected the return switch, got %d decisions", len(ds))
	}
}

func TestControllerNeedsMinSample(t *testing.T) {
	ctx := newFakeCtx()
	ctrl := NewController(testOptions(oltp.SharedNothing))
	// feed spaces reports 30µs apart, so at most eight fall inside one
	// default 200µs window: each carrying under an eighth of minSample
	// keeps every window below it.
	tiny := int64(minSample/8 - 1)
	for i := 0; i < 50; i++ {
		feed(ctrl, ctx, []int64{tiny, 0, 0, 0}) // fully skewed but tiny
	}
	if s := ctrl.Snapshot(ctx.now); s.Admitted == 0 || s.Admitted >= minSample {
		t.Fatalf("window holds %v admissions, want in (0, %d)", s.Admitted, minSample)
	}
	if len(ctx.decisions()) != 0 {
		t.Fatal("controller acted below the minimum sample size")
	}
}

func TestControllerPatience(t *testing.T) {
	ctx := newFakeCtx()
	ctrl := NewController(testOptions(oltp.SharedNothing))
	// Fewer skewed evaluations than patience: no switch yet.
	for i := 0; i < patience-1; i++ {
		feed(ctrl, ctx, []int64{64, 0, 0, 0})
	}
	if len(ctx.decisions()) != 0 {
		t.Fatal("switched before patience ran out")
	}
	feed(ctrl, ctx, []int64{64, 0, 0, 0})
	if len(ctx.decisions()) != 1 {
		t.Fatalf("decisions = %d after patience satisfied", len(ctx.decisions()))
	}
}

func TestControllerGrowsOnQueries(t *testing.T) {
	ctx := newFakeCtx()
	opts := testOptions(oltp.SharedNothing)
	opts.Elastic = true
	ctrl := NewController(opts)
	for i := 0; i < 3; i++ {
		ctx.now += 10 * sim.Microsecond
		ctrl.OnEvent(ctx, nil, &core.Event{Kind: core.EvSignal, Payload: &oltp.Report{
			At: ctx.now, Queries: 2,
		}})
	}
	var grows int
	for _, d := range ctx.decisions() {
		if d.Grow {
			grows++
		}
	}
	if grows != 1 {
		t.Fatalf("grow decisions = %d, want exactly 1", grows)
	}
}

func TestSignalsDerivations(t *testing.T) {
	s := Signals{
		Admitted: 100, Aborted: 25, CrossPart: 15,
		HomeShare: []float64{0.25, 0.25, 0.25, 0.25},
	}
	if got := s.EffPartitions(); got < 3.99 || got > 4.01 {
		t.Fatalf("uniform EffPartitions = %v, want 4", got)
	}
	if got := s.TopShare(); got != 0.25 {
		t.Fatalf("TopShare = %v", got)
	}
	if got := s.CrossFrac(); got != 0.15 {
		t.Fatalf("CrossFrac = %v", got)
	}
	if got := s.AbortRate(); got != 0.2 {
		t.Fatalf("AbortRate = %v", got)
	}
	skewed := Signals{Admitted: 100, HomeShare: []float64{1, 0, 0, 0}}
	if got := skewed.EffPartitions(); got != 1 {
		t.Fatalf("skewed EffPartitions = %v, want 1", got)
	}
	var empty Signals
	if empty.EffPartitions() != 0 || empty.AbortRate() != 0 || empty.CrossFrac() != 0 {
		t.Fatal("empty signals must not divide by zero")
	}
}

// TestMeasuredModelOverridesPrior: the measured model must fall back to
// the prior on unseen arms and converge onto realized throughput — even
// when the measurements contradict the hand-calibrated constants.
func TestMeasuredModelOverridesPrior(t *testing.T) {
	env := Env{Executors: 4, Warehouses: 4}
	m := NewMeasuredModel(nil)
	skewed := Signals{Admitted: 100, HomeShare: []float64{1, 0, 0, 0}}

	// Cold: identical to the prior.
	for _, p := range []oltp.Policy{oltp.SharedNothing, oltp.StreamingCC} {
		if got, want := m.Score(p, skewed, env), (DefaultModel{}).Score(p, skewed, env); got != want {
			t.Fatalf("cold score(%v) = %v, want prior %v", p, got, want)
		}
	}

	// Feed measurements where — contra the prior — shared-nothing beats
	// streaming CC under skew. The model must learn to rank it first.
	for i := 0; i < 20; i++ {
		m.Observe(oltp.SharedNothing, skewed, 2_000_000, env)
		m.Observe(oltp.StreamingCC, skewed, 500_000, env)
	}
	if m.Score(oltp.SharedNothing, skewed, env) <= m.Score(oltp.StreamingCC, skewed, env) {
		t.Fatalf("measured model kept the prior's ranking against the evidence: SN %.2f vs SCC %.2f",
			m.Score(oltp.SharedNothing, skewed, env), m.Score(oltp.StreamingCC, skewed, env))
	}
	if !m.Sampled(oltp.SharedNothing, skewed) || m.Sampled(oltp.PreciseIntra, skewed) {
		t.Fatal("Sampled must reflect which arms have data")
	}
}

// TestMeasuredModelGeneralizesByClass: measurements under one workload
// class must not leak into another (a skewed-phase rate says nothing
// about a uniform phase).
func TestMeasuredModelGeneralizesByClass(t *testing.T) {
	env := Env{Executors: 4, Warehouses: 4}
	m := NewMeasuredModel(nil)
	skewed := Signals{Admitted: 100, HomeShare: []float64{1, 0, 0, 0}}
	uniform := Signals{Admitted: 100, HomeShare: []float64{0.25, 0.25, 0.25, 0.25}}
	for i := 0; i < 10; i++ {
		m.Observe(oltp.StreamingCC, skewed, 1_700_000, env)
	}
	if m.Sampled(oltp.StreamingCC, uniform) {
		t.Fatal("a skewed-phase measurement leaked into the uniform class")
	}
	if got, want := m.Score(oltp.StreamingCC, uniform, env), (DefaultModel{}).Score(oltp.StreamingCC, uniform, env); got != want {
		t.Fatalf("uniform-class score = %v, want untouched prior %v", got, want)
	}
}

// TestMeasuredModelRegret: running below the best-seen arm accumulates
// regret; running at the best does not.
func TestMeasuredModelRegret(t *testing.T) {
	env := Env{Executors: 4, Warehouses: 4}
	m := NewMeasuredModel(nil)
	skewed := Signals{Admitted: 100, HomeShare: []float64{1, 0, 0, 0}}
	m.Observe(oltp.StreamingCC, skewed, 1_000_000, env)
	if m.Regret() != 0 {
		t.Fatalf("regret after first observation = %v, want 0", m.Regret())
	}
	m.Observe(oltp.SharedNothing, skewed, 500_000, env) // half the best: +0.5
	if r := m.Regret(); r < 0.49 || r > 0.51 {
		t.Fatalf("regret = %v, want ~0.5", r)
	}
	m.Observe(oltp.StreamingCC, skewed, 1_000_000, env) // at the best: no regret
	if r := m.Regret(); r < 0.49 || r > 0.51 {
		t.Fatalf("regret grew while running the best arm: %v", r)
	}
	if m.Samples() != 3 {
		t.Fatalf("samples = %d", m.Samples())
	}
}

// measuredOptions builds controller options with a measured model and a
// probe cadence small enough for the fake clock.
func measuredOptions(start oltp.Policy) Options {
	o := testOptions(start)
	o.Model = NewMeasuredModel(nil)
	return o
}

// TestControllerProbesUnmeasuredArms: once stable and measured on its
// own arm, the controller must spend a probe on the unexplored
// candidate, then return — bracketing the probe with switches.
func TestControllerProbesUnmeasuredArms(t *testing.T) {
	ctx := newFakeCtx()
	ctrl := NewController(measuredOptions(oltp.SharedNothing))
	// Long uniform run: shared-nothing stays best and gets measured;
	// eventually the controller probes streaming CC, measures it worse,
	// and returns.
	for i := 0; i < 800; i++ {
		feed(ctrl, ctx, []int64{16, 16, 16, 16})
	}
	ds := ctx.decisions()
	var probeOut, probeBack bool
	for _, d := range ds {
		if d.Probe && d.From == oltp.SharedNothing && d.To == oltp.StreamingCC {
			probeOut = true
		}
		if d.Probe && d.From == oltp.StreamingCC && d.To == oltp.SharedNothing {
			probeBack = true
		}
	}
	if !probeOut {
		t.Fatalf("controller never probed the unmeasured candidate; decisions: %+v", ds)
	}
	if !probeBack {
		t.Fatalf("probe never returned to the better policy; decisions: %+v", ds)
	}
	if ctrl.Current() != oltp.SharedNothing {
		t.Fatalf("current = %v after probe cycle", ctrl.Current())
	}
	// The regret trace must be populated on emitted decisions.
	last := ds[len(ds)-1]
	if last.Regret == 0 {
		t.Log("note: zero regret — acceptable if the probe ran exactly at the best rate")
	}
}

// rebalanceOptions wires a 4-slot static placement: warehouses 0..7 on
// owners w%4 until the test's move table says otherwise.
func rebalanceOptions(owners []int) Options {
	o := Options{
		Start:      oltp.SharedNothing,
		Candidates: []oltp.Policy{oltp.SharedNothing},
		Env:        Env{Executors: 4, Warehouses: len(owners)},
		Rebalance:  true,
		OwnerIdx:   func(w int) int { return owners[w] },
		NumOwners:  func() int { return 4 },
	}
	return o
}

// TestControllerRebalancesHotOwner: two hot warehouses co-located on
// one owner must trigger exactly one Move decision (hysteresis), naming
// a warehouse whose migration levels the load, toward the coolest slot.
func TestControllerRebalancesHotOwner(t *testing.T) {
	owners := []int{0, 1, 2, 3, 0, 1, 2, 3} // w%4 placement, 8 warehouses
	ctx := newFakeCtx()
	ctrl := NewController(rebalanceOptions(owners))
	// All load on warehouses 0 and 4 — both on owner 0. Apply emitted
	// moves immediately, the way the cluster's applier does (OwnerIdx
	// reflects ground truth as soon as the handoff lands).
	hot := []int64{32, 0, 0, 0, 32, 0, 0, 0}
	var moves []*Move
	for i := 0; i < 70; i++ {
		feed(ctrl, ctx, hot)
		for _, d := range ctx.decisions() {
			if d.Move != nil && len(moves) == 0 {
				moves = append(moves, d.Move)
				owners[d.Move.Warehouse] = d.Move.ToOwner
			}
		}
	}
	if len(moves) != 1 {
		t.Fatalf("no move emitted; decisions: %+v", ctx.decisions())
	}
	mv := moves[0]
	if mv.Warehouse != 0 && mv.Warehouse != 4 {
		t.Fatalf("moved warehouse %d, want one of the hot pair {0,4}", mv.Warehouse)
	}
	if mv.FromOwner != 0 || mv.ToOwner == 0 {
		t.Fatalf("move %+v must leave owner 0", mv)
	}
	// With the load leveled, no further moves may have accumulated.
	var total int
	for _, d := range ctx.decisions() {
		if d.Move != nil {
			total++
		}
	}
	if total != 1 {
		t.Fatalf("controller kept moving after the load leveled: %d moves", total)
	}
}

// TestRebalanceOnlyTracksReportedPolicy: a single-candidate controller
// (rebalance-only mode) does not own the routing — manual switches
// happen around it — so it must adopt the policy the dispatchers
// report running, and stamp Move decisions with it.
func TestRebalanceOnlyTracksReportedPolicy(t *testing.T) {
	owners := []int{0, 1, 2, 3, 0, 1, 2, 3}
	ctx := newFakeCtx()
	ctrl := NewController(rebalanceOptions(owners))
	hot := []int64{32, 0, 0, 0, 32, 0, 0, 0}
	feedPolicy := func(pol oltp.Policy) {
		ctx.now += 30 * sim.Microsecond
		var admitted int64
		for _, n := range hot {
			admitted += n
		}
		ctrl.OnEvent(ctx, nil, &core.Event{Kind: core.EvSignal, Payload: &oltp.Report{
			At: ctx.now, Policy: pol, Admitted: admitted, Committed: admitted, ByHome: hot,
		}})
	}
	// The cluster was manually switched to streaming CC; reports say so.
	var move *Decision
	for i := 0; i < 70 && move == nil; i++ {
		feedPolicy(oltp.StreamingCC)
		for _, d := range ctx.decisions() {
			if d.Move != nil {
				move = d
			}
		}
	}
	if ctrl.Current() != oltp.StreamingCC {
		t.Fatalf("controller did not adopt the reported policy: %v", ctrl.Current())
	}
	if move == nil {
		t.Fatalf("no move emitted; decisions: %+v", ctx.decisions())
	}
	if move.From != oltp.StreamingCC || move.To != oltp.StreamingCC {
		t.Fatalf("move stamped with %v -> %v, want the reported streaming-cc", move.From, move.To)
	}
}

// TestControllerNeverSplitsSoleHotWarehouse: pure §3.2 skew (one hot
// warehouse) cannot be fixed by placement — the controller must not
// emit useless moves.
func TestControllerNeverSplitsSoleHotWarehouse(t *testing.T) {
	owners := []int{0, 1, 2, 3}
	ctx := newFakeCtx()
	ctrl := NewController(rebalanceOptions(owners))
	for i := 0; i < 50; i++ {
		feed(ctrl, ctx, []int64{64, 0, 0, 0})
	}
	for _, d := range ctx.decisions() {
		if d.Move != nil {
			t.Fatalf("useless move emitted for a sole hot warehouse: %+v", d.Move)
		}
	}
}

func TestDefaultModelRanking(t *testing.T) {
	env := Env{Executors: 4, Warehouses: 4}
	m := DefaultModel{}
	uniform := Signals{Admitted: 100, HomeShare: []float64{0.25, 0.25, 0.25, 0.25}, CrossPart: 15}
	skewed := Signals{Admitted: 100, HomeShare: []float64{1, 0, 0, 0}}
	if m.Score(oltp.SharedNothing, uniform, env) <= m.Score(oltp.StreamingCC, uniform, env) {
		t.Fatal("shared-nothing must win a partitionable workload")
	}
	if m.Score(oltp.StreamingCC, skewed, env) <= m.Score(oltp.SharedNothing, skewed, env) {
		t.Fatal("streaming CC must win a fully skewed workload")
	}
	for _, s := range []Signals{uniform, skewed} {
		if m.Score(oltp.NaiveIntra, s, env) >= m.Score(oltp.PreciseIntra, s, env) {
			t.Fatal("naive intra must score below precise intra (§3.2)")
		}
	}
}
