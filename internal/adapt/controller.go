package adapt

import (
	"fmt"

	"anydb/internal/core"
	"anydb/internal/metrics"
	"anydb/internal/oltp"
	"anydb/internal/sim"
)

// Decision is the payload of core.EvAdapt: one architecture change the
// controller wants applied. The receiver (anydb.Cluster or the bench
// harness) drains in-flight work, calls Dispatcher.SetConfig with the
// new policy's routes, and — when Grow is set — adds a server; when
// Move is set it performs a live partition-ownership handoff instead.
type Decision struct {
	At       sim.Time
	From, To oltp.Policy
	// Grow asks for one extra server (elasticity, §5): analytical load
	// appeared and should land on fresh compute instead of the OLTP
	// ACs.
	Grow bool
	// Move asks for an elastic repartitioning step: migrate one
	// warehouse to another owner (nil for policy/grow decisions). In an
	// architecture-less system placement is just routing, so this rides
	// the same decision stream as policy switches.
	Move *Move
	// Probe marks switches made to measure an unexplored policy (and
	// the return switch at probe end) rather than because the model
	// already preferred the target.
	Probe bool
	// Regret is the measured model's cumulative normalized regret at
	// emit time (0 without a MeasuredModel) — the trace that shows the
	// self-driving loop converging.
	Regret float64
	// Reason summarizes the signals behind the decision.
	Reason string
	// Scores holds the cost-model score per candidate policy.
	Scores map[oltp.Policy]float64
}

// Move is the rebalance half of a Decision: migrate one warehouse to
// another owner slot. Owner slots index the receiver's owner-candidate
// list (Options.OwnerIdx speaks the same indexing); the receiver maps
// the slot to a concrete AC. FromOwner is informational.
type Move struct {
	Warehouse          int
	FromOwner, ToOwner int
}

// The controller's hysteresis. The durations are multiples of
// Options.WindowSpan, so they scale with the window the runtime passes.
const (
	// buckets is the sliding windows' resolution.
	buckets = 8
	// minSample is the admissions a window needs before the controller
	// trusts it.
	minSample = 48
	// margin is the score advantage a candidate needs over the current
	// policy (20% better) — hysteresis against flapping.
	margin = 1.2
	// patience is how many consecutive evaluations must agree before a
	// switch — more hysteresis.
	patience = 3
	// minDwellSpans is the minimum time between switches.
	minDwellSpans = 2

	// moveSkew is the rebalance trigger: the hottest owner's admission
	// share against the ideal 1/NumOwners (60% above fair).
	moveSkew = 1.6
	// moveDwellSpans is the minimum time between moves.
	moveDwellSpans = 4
	// moveMinSample is the admission floor for placement decisions: a
	// migration is costlier to get wrong than a switch, and a sparse
	// window — one dispatcher's report arriving ahead of the others —
	// must never read as skew.
	moveMinSample = 4 * minSample
	// movePatience is the consecutive-evaluation streak a move needs.
	movePatience = 2 * patience

	// probeEverySpans is how long the controller stays on one policy
	// before spending a probe on an unmeasured candidate; probeSpans is
	// the probe's length — one settle window plus two measured ones.
	// Probes only happen with a MeasuredModel and >1 candidate.
	probeEverySpans = 24
	probeSpans      = 3
)

// Options tunes the controller. Zero fields take defaults sized for the
// virtual-time runtime; the real runtime passes a wider window.
type Options struct {
	// Start is the policy the cluster is currently running.
	Start oltp.Policy
	// Candidates are the policies the controller may choose between.
	// Default: all four.
	Candidates []oltp.Policy
	// Model scores candidates; default DefaultModel.
	Model CostModel
	// Env describes the cluster.
	Env Env
	// WindowSpan is the sliding-window length (default 200µs virtual).
	WindowSpan sim.Time
	// Elastic lets the controller request server growth when
	// analytical queries appear.
	Elastic bool

	// Rebalance extends the decision space beyond policy choice to
	// data placement: when the admission load carried by one owner
	// exceeds moveSkew× its fair share (with the same patience/dwell
	// hysteresis as switches), the controller emits a Move decision
	// relocating the warehouse whose migration best levels the load.
	// Requires OwnerIdx and NumOwners.
	Rebalance bool
	// OwnerIdx maps a warehouse to the owner slot currently holding it
	// (an index into the receiver's owner-candidate list). It runs on
	// the controller's AC goroutine and must be safe to call there
	// (the cluster backs it with lock-free topology snapshots). A
	// negative return means "in flux, skip this round".
	OwnerIdx func(warehouse int) int
	// NumOwners returns the current owner-candidate count; it grows
	// when elastic servers join the placement pool.
	NumOwners func() int

	// EvalEvery additionally evaluates after this many reports even
	// inside the time-based rate limit (0 = time-based only). The
	// goroutine runtime needs it: its mailbox delivers reports in
	// batch bursts whose processing takes microseconds, so a purely
	// time-gated evaluation fires on a burst's first report — against a
	// window the rest of the burst has not reached yet — and the full
	// picture expires before the next burst. Counting reports makes
	// evaluations happen mid-burst, when the window holds every
	// dispatcher's view. The virtual-time runtime delivers reports
	// spread in time and keeps this off.
	EvalEvery int
}

func (o Options) withDefaults() Options {
	if len(o.Candidates) == 0 {
		o.Candidates = []oltp.Policy{
			oltp.SharedNothing, oltp.NaiveIntra, oltp.PreciseIntra, oltp.StreamingCC,
		}
	}
	if o.Model == nil {
		o.Model = DefaultModel{}
	}
	if o.WindowSpan == 0 {
		o.WindowSpan = 200 * sim.Microsecond
	}
	return o
}

// Controller is the adaptation controller AC behavior: it consumes
// EvSignal reports, maintains sliding windows of the workload signals,
// and emits EvAdapt decisions toward core.ClientAC. Register it for
// core.EvSignal on every AC (components stay generic); only the AC the
// telemetry sinks to will receive reports, so the state is effectively
// single-threaded on both runtimes.
type Controller struct {
	opt Options
	cur oltp.Policy

	admitted  *metrics.Window
	committed *metrics.Window
	aborted   *metrics.Window
	crossPart *metrics.Window
	queries   *metrics.Window
	byHome    []*metrics.Window

	candidate  oltp.Policy
	streak     int
	lastSwitch sim.Time
	lastEval   sim.Time
	evaluated  bool
	switched   bool
	grew       bool
	// reportsSinceEval drives the optional EvalEvery count trigger.
	reportsSinceEval int

	// Measurement state (nil/zero unless Options.Model is a
	// *MeasuredModel): observation cadence and the probe bracket.
	measured     *MeasuredModel
	observedOnce bool
	lastObserve  sim.Time
	probing      bool
	probeStart   sim.Time

	// Rebalance hysteresis (mirrors the switch hysteresis).
	moveCandidate int
	moveStreak    int
	lastMove      sim.Time
	moved         bool

	log []Decision
}

// NewController returns a controller observing from opts.Start.
func NewController(opts Options) *Controller {
	opts = opts.withDefaults()
	span, n := int64(opts.WindowSpan), buckets
	c := &Controller{
		opt: opts, cur: opts.Start,
		admitted:  metrics.NewWindow(span, n),
		committed: metrics.NewWindow(span, n),
		aborted:   metrics.NewWindow(span, n),
		crossPart: metrics.NewWindow(span, n),
		queries:   metrics.NewWindow(span, n),
	}
	w := opts.Env.Warehouses
	if w < 1 {
		w = 1
	}
	c.byHome = make([]*metrics.Window, w)
	for i := range c.byHome {
		c.byHome[i] = metrics.NewWindow(span, n)
	}
	if mm, ok := opts.Model.(*MeasuredModel); ok {
		c.measured = mm
	}
	return c
}

// Current returns the policy the controller believes is active.
func (c *Controller) Current() oltp.Policy { return c.cur }

// Log returns the decisions taken so far. Call only once the engine is
// quiesced (the log is appended on the controller AC's goroutine).
func (c *Controller) Log() []Decision { return c.log }

// OnEvent implements core.Behavior for core.EvSignal.
func (c *Controller) OnEvent(ctx core.Context, _ *core.AC, ev *core.Event) {
	// The report's fields are folded into the windows below; neither the
	// envelope nor the payload is retained.
	defer core.FreeEvent(ev)
	r, ok := ev.Payload.(*oltp.Report)
	if !ok {
		panic("adapt: EvSignal payload must be *oltp.Report")
	}
	ctx.Charge(ctx.Costs().AckProcess)
	now := int64(ctx.Now())
	// A single-candidate controller (rebalance-only mode) does not own
	// the routing policy — manual SetPolicy is allowed around it. Track
	// the policy the dispatchers actually report running, so Move
	// decisions and measured-model observations are attributed to the
	// truth rather than the starting policy.
	if len(c.opt.Candidates) == 1 && r.Admitted > 0 && r.Policy != c.cur {
		c.cur = r.Policy
	}
	c.admitted.Add(now, float64(r.Admitted))
	c.committed.Add(now, float64(r.Committed))
	c.aborted.Add(now, float64(r.Aborted))
	c.crossPart.Add(now, float64(r.CrossPart))
	c.queries.Add(now, float64(r.Queries))
	for home, n := range r.ByHome {
		if home < len(c.byHome) && n > 0 {
			c.byHome[home].Add(now, float64(n))
		}
	}
	// The grow trigger is checked on every report, ahead of the rate
	// limit below: a single query completion may be the only
	// analytical signal for a long time, and skipping its report could
	// let it slide out of the window before the next evaluation.
	if c.opt.Elastic && !c.grew && r.Queries > 0 {
		c.grew = true
		c.emit(ctx, Decision{
			At: sim.Time(now), From: c.cur, To: c.cur, Grow: true,
			Reason: fmt.Sprintf("queries=%d in window: grow a server for analytics", r.Queries),
		})
	}
	// Evaluation sums every window (O(warehouses × buckets)); reports
	// can arrive much faster than the windows change, and the sink AC
	// may sit on a hot path (the sequencer under streaming CC). Rate-
	// limit to one evaluation per bucket width — decisions lag at most
	// one bucket, which hysteresis already absorbs. EvalEvery, when
	// set, also triggers on report count so burst-delivered reports
	// (goroutine runtime) are evaluated while still in the window.
	c.reportsSinceEval++
	width := c.opt.WindowSpan / buckets
	if c.evaluated && sim.Time(now)-c.lastEval < width &&
		(c.opt.EvalEvery == 0 || c.reportsSinceEval < c.opt.EvalEvery) {
		return
	}
	c.evaluated = true
	c.lastEval = sim.Time(now)
	c.reportsSinceEval = 0
	c.evaluate(ctx, sim.Time(now))
}

// Snapshot assembles the current sliding-window signals.
func (c *Controller) Snapshot(now sim.Time) Signals {
	t := int64(now)
	s := Signals{
		Window:    c.opt.WindowSpan,
		Admitted:  c.admitted.Sum(t),
		Committed: c.committed.Sum(t),
		Aborted:   c.aborted.Sum(t),
		CrossPart: c.crossPart.Sum(t),
		Queries:   c.queries.Sum(t),
	}
	if s.Admitted > 0 {
		s.HomeShare = make([]float64, len(c.byHome))
		for i, w := range c.byHome {
			s.HomeShare[i] = w.Sum(t) / s.Admitted
		}
	}
	return s
}

// evaluate scores the candidates against the current window and emits a
// decision once hysteresis is satisfied. With a MeasuredModel it also
// records realized throughput into the model, brackets switches with
// probe phases, and — with Options.Rebalance — weighs data-placement
// moves alongside policy choice.
func (c *Controller) evaluate(ctx core.Context, now sim.Time) {
	s := c.Snapshot(now)
	if s.Admitted < minSample {
		return
	}
	c.observe(now, s)
	if !c.evaluatePolicy(ctx, now, s) {
		c.evaluateRebalance(ctx, now, s)
	}
}

// observe feeds one realized-throughput measurement to the measured
// model: the commit rate of the trailing window, attributed to the
// running policy. A full window after any switch — or any rebalance
// move, whose partition drain dips throughput just like a routing
// change (placement IS routing) — is blacked out so a rate is never
// attributed across either, and observations are spaced half a window
// apart so overlapping windows don't overcount.
func (c *Controller) observe(now sim.Time, s Signals) {
	if c.measured == nil {
		return
	}
	if c.switched && now-c.lastSwitch < c.opt.WindowSpan {
		return
	}
	if c.moved && now-c.lastMove < c.opt.WindowSpan {
		return
	}
	if c.observedOnce && now-c.lastObserve < c.opt.WindowSpan/2 {
		return
	}
	c.observedOnce = true
	c.lastObserve = now
	rate := s.Committed * 1e9 / float64(c.opt.WindowSpan)
	c.measured.Observe(c.cur, s, rate, c.opt.Env)
}

// scoreCandidates scores every candidate against the current window,
// returning the score table and the best entry — the one scoring pass
// both normal evaluation and probe exits decide from.
func (c *Controller) scoreCandidates(s Signals) (scores map[oltp.Policy]float64, best oltp.Policy, bestScore float64) {
	scores = make(map[oltp.Policy]float64, len(c.opt.Candidates))
	best, bestScore = c.cur, 0.0
	for _, p := range c.opt.Candidates {
		sc := c.opt.Model.Score(p, s, c.opt.Env)
		scores[p] = sc
		if sc > bestScore {
			best, bestScore = p, sc
		}
	}
	return scores, best, bestScore
}

// evaluatePolicy runs the switch half of the decision space and reports
// whether it emitted a decision this round.
func (c *Controller) evaluatePolicy(ctx core.Context, now sim.Time, s Signals) bool {
	if c.probing {
		if now-c.probeStart < probeSpans*c.opt.WindowSpan {
			return false
		}
		return c.endProbe(ctx, now, s)
	}
	scores, best, bestScore := c.scoreCandidates(s)
	curScore, ok := scores[c.cur]
	if !ok {
		curScore = c.opt.Model.Score(c.cur, s, c.opt.Env)
	}
	if best == c.cur || bestScore < margin*curScore {
		c.streak = 0
		return c.maybeProbe(ctx, now, s)
	}
	if best != c.candidate {
		c.candidate = best
		c.streak = 0
	}
	c.streak++
	if c.streak < patience {
		return false
	}
	if c.switched && now-c.lastSwitch < minDwellSpans*c.opt.WindowSpan {
		return false
	}
	c.streak = 0
	d := Decision{
		At: now, From: c.cur, To: best, Scores: scores,
		Reason: fmt.Sprintf("skew=%.2f effparts=%.1f cross=%.2f abort=%.2f: %v %.2f > %v %.2f",
			s.TopShare(), s.EffPartitions(), s.CrossFrac(), s.AbortRate(),
			best, bestScore, c.cur, curScore),
	}
	c.cur = best
	c.lastSwitch = now
	c.switched = true
	c.emit(ctx, d)
	return true
}

// maybeProbe spends a short measurement phase on a candidate the model
// has never observed under the current workload class — the exploration
// half of the measured loop. The controller must itself be measured
// (its own arm sampled) and stable for probeEverySpans windows first, so
// probes cost throughput only when the loop has settled.
func (c *Controller) maybeProbe(ctx core.Context, now sim.Time, s Signals) bool {
	m := c.measured
	if m == nil || len(c.opt.Candidates) < 2 {
		return false
	}
	if now-c.lastSwitch < probeEverySpans*c.opt.WindowSpan || !m.Sampled(c.cur, s) {
		return false
	}
	for _, p := range c.opt.Candidates {
		if p == c.cur || m.Sampled(p, s) {
			continue
		}
		d := Decision{
			At: now, From: c.cur, To: p, Probe: true,
			Reason: fmt.Sprintf("probe: no measurement for %v under this workload class", p),
		}
		c.probing, c.probeStart = true, now
		c.cur = p
		c.lastSwitch = now
		c.switched = true
		c.emit(ctx, d)
		return true
	}
	return false
}

// endProbe closes a probe bracket: with the probed arm now measured,
// rescore every candidate and land on the best — back where the probe
// started if the probe lost, staying if it won. The return switch
// bypasses patience (the probe was the evidence-gathering).
func (c *Controller) endProbe(ctx core.Context, now sim.Time, s Signals) bool {
	c.probing = false
	scores, best, bestScore := c.scoreCandidates(s)
	if best == c.cur {
		return false // the probed policy won; stay on it
	}
	d := Decision{
		At: now, From: c.cur, To: best, Scores: scores, Probe: true,
		Reason: fmt.Sprintf("probe of %v done: %v scores %.2f > %.2f", c.cur, best, bestScore, scores[c.cur]),
	}
	c.cur = best
	c.lastSwitch = now
	c.switched = true
	c.emit(ctx, d)
	return true
}

// evaluateRebalance is the placement half of the decision space: when
// one owner carries far more than its fair share of admissions, emit a
// Move relocating the warehouse whose migration levels the load best.
// Placement changes ride the same hysteresis (patience + dwell) as
// policy switches, so transient spikes never trigger a handoff.
func (c *Controller) evaluateRebalance(ctx core.Context, now sim.Time, s Signals) {
	o := &c.opt
	if !o.Rebalance || o.OwnerIdx == nil || o.NumOwners == nil || len(s.HomeShare) == 0 {
		return
	}
	if s.Admitted < moveMinSample {
		return
	}
	n := o.NumOwners()
	if n < 2 {
		return
	}
	// Quantize shares to 1/64 before any comparison: measured shares
	// jitter a little every window, and the hysteresis streak only
	// works if near-ties resolve to the SAME owner and warehouse each
	// round (first index wins). Real skew dwarfs the quantum.
	const quantum = 1.0 / 64
	quant := func(v float64) float64 { return float64(int(v/quantum+0.5)) * quantum }
	loads := make([]float64, n)
	owner := make([]int, len(s.HomeShare))
	share := make([]float64, len(s.HomeShare))
	for w, sh := range s.HomeShare {
		oi := o.OwnerIdx(w)
		if oi < 0 || oi >= n {
			return // topology in flux; retry next round
		}
		owner[w] = oi
		share[w] = quant(sh)
		loads[oi] += sh
	}
	for i := range loads {
		loads[i] = quant(loads[i])
	}
	hi, lo := 0, 0
	for i, l := range loads {
		if l > loads[hi] {
			hi = i
		}
		if l < loads[lo] {
			lo = i
		}
	}
	ideal := 1.0 / float64(n)
	if loads[hi] < moveSkew*ideal {
		c.moveStreak = 0
		return
	}
	// Pick the warehouse whose move to the coolest owner minimizes the
	// resulting hotter of the two. Moving an owner's sole contributor
	// never improves the max, so a single fully-hot warehouse (the pure
	// §3.2 skew that only a policy switch can address) stays put.
	bestW, bestMax := -1, loads[hi]
	for w, sh := range share {
		if owner[w] != hi || sh <= 0 {
			continue
		}
		newMax := loads[hi] - sh
		if m := loads[lo] + sh; m > newMax {
			newMax = m
		}
		if newMax < bestMax-quantum/2 {
			bestMax, bestW = newMax, w
		}
	}
	if bestW < 0 || bestMax > 0.9*loads[hi] {
		c.moveStreak = 0
		return
	}
	if bestW != c.moveCandidate {
		c.moveCandidate = bestW
		c.moveStreak = 0
	}
	c.moveStreak++
	if c.moveStreak < movePatience {
		return
	}
	if c.moved && now-c.lastMove < moveDwellSpans*o.WindowSpan {
		return
	}
	c.moveStreak = 0
	c.lastMove, c.moved = now, true
	c.emit(ctx, Decision{
		At: now, From: c.cur, To: c.cur,
		Move: &Move{Warehouse: bestW, FromOwner: hi, ToOwner: lo},
		Reason: fmt.Sprintf("owner %d carries %.0f%% of admissions (fair %.0f%%): move warehouse %d to owner %d",
			hi, loads[hi]*100, ideal*100, bestW, lo),
	})
}

func (c *Controller) emit(ctx core.Context, d Decision) {
	if c.measured != nil {
		d.Regret = c.measured.Regret()
	}
	c.log = append(c.log, d)
	ev := core.GetEvent()
	ev.Kind, ev.Payload = core.EvAdapt, &d
	ctx.Send(core.ClientAC, ev)
}
