package adapt

import (
	"anydb/internal/oltp"
)

// MeasuredModel replaces hand-calibrated cost-model constants with
// measurement — the evolutionary-data-systems refactor the ROADMAP asks
// for. It keeps a prior (normally DefaultModel) for policies it has
// never observed and blends toward measured throughput as evidence
// accumulates, so the controller behaves exactly like the prior on a
// cold start and like a multi-armed bandit once warm.
//
// An arm is a (policy, workload class) pair: realized commit rates are
// recorded per arm, where the workload class coarsely quantizes the
// signal window (skew and cross-partition buckets). Classing is what
// lets a measurement generalize: the rate observed under "skewed,
// local" traffic predicts other skewed, local windows, not uniform
// ones.
//
// Prior scores are unit-less relative throughput estimates; measured
// rates are transactions per second. The two are made comparable by a
// learned calibration: unitRate tracks the realized rate per unit of
// prior score for whatever policy is running, so a measured arm scores
// as rate/unitRate — in the prior's units. Ranking therefore never
// mixes incompatible scales.
//
// The model also tracks regret: for every observation window it
// accumulates the normalized shortfall of the realized rate against the
// best rate ever seen for the same workload class. A regret trace that
// flattens means the controller has converged on the best-known arm for
// each phase; the public API exposes it through AdaptationLog.
//
// MeasuredModel is not safe for concurrent use: like the controller's
// windows it lives on the adaptation-controller AC and is only touched
// from its event handler. Readers (AdaptationLog) get values snapshotted
// into the emitted Decision instead.
type MeasuredModel struct {
	// Prior scores unmeasured arms; default DefaultModel.
	Prior CostModel
	// Alpha is the EWMA step for arm rates (default 0.3).
	Alpha float64
	// Blend is the pseudo-count governing prior/measured mixing: an arm
	// with n samples is weighted n/(n+Blend) (default 2).
	Blend float64

	arms map[arm]*armStat
	best map[sigClass]float64 // best rate ever seen per workload class

	unitRate float64 // realized rate per unit of prior score
	unitN    float64

	regret  float64
	samples int
}

// sigClass is the coarse workload signature measurements generalize
// over: quantized skew (top-warehouse admission share) and
// cross-partition fraction.
type sigClass struct {
	skew  uint8
	cross uint8
}

// arm is one measured (policy, workload class) cell.
type arm struct {
	pol oltp.Policy
	sig sigClass
}

type armStat struct {
	rate float64 // EWMA of realized commit rate (txn/s)
	n    float64 // sample count (saturating weight input)
}

// NewMeasuredModel returns a model with the given prior (nil means
// DefaultModel).
func NewMeasuredModel(prior CostModel) *MeasuredModel {
	if prior == nil {
		prior = DefaultModel{}
	}
	return &MeasuredModel{
		Prior: prior, Alpha: 0.3, Blend: 2,
		arms: make(map[arm]*armStat),
		best: make(map[sigClass]float64),
	}
}

// classify buckets a signal window into its workload class.
func classify(s Signals) sigClass {
	return sigClass{skew: bucket3(s.TopShare()), cross: bucket3(s.CrossFrac())}
}

// bucket3 quantizes a [0,1] fraction into low/mid/high.
func bucket3(f float64) uint8 {
	switch {
	case f < 0.3:
		return 0
	case f < 0.65:
		return 1
	default:
		return 2
	}
}

// Observe records one realized measurement: policy p ran against window
// s and committed at rate txn/s. The controller calls it once per
// settled window (never inside the blackout right after a switch, so a
// rate is always attributed to the policy that produced it).
func (m *MeasuredModel) Observe(p oltp.Policy, s Signals, rate float64, env Env) {
	if rate <= 0 {
		return
	}
	sig := classify(s)
	k := arm{pol: p, sig: sig}
	st := m.arms[k]
	if st == nil {
		st = &armStat{rate: rate}
		m.arms[k] = st
	} else {
		st.rate += m.Alpha * (rate - st.rate)
	}
	st.n++
	m.samples++

	// Calibrate the unit: how much realized rate one point of prior
	// score is worth right now.
	if ps := m.Prior.Score(p, s, env); ps > 0 {
		u := rate / ps
		if m.unitN == 0 {
			m.unitRate = u
		} else {
			m.unitRate += m.Alpha * (u - m.unitRate)
		}
		m.unitN++
	}

	// Regret against the best arm ever seen for this workload class.
	if best := m.best[sig]; best > rate {
		m.regret += (best - rate) / best
	} else {
		m.best[sig] = rate
	}
}

// Score implements CostModel: the prior blended toward the measured
// rate (converted into prior units via the learned calibration) as the
// arm accumulates samples.
func (m *MeasuredModel) Score(p oltp.Policy, s Signals, env Env) float64 {
	prior := m.Prior.Score(p, s, env)
	st := m.arms[arm{pol: p, sig: classify(s)}]
	if st == nil || st.n == 0 || m.unitRate <= 0 {
		return prior
	}
	w := st.n / (st.n + m.Blend)
	return (1-w)*prior + w*(st.rate/m.unitRate)
}

// Sampled reports whether the model has at least one measurement for
// policy p under the workload class of s — the probe planner uses it to
// find unexplored arms.
func (m *MeasuredModel) Sampled(p oltp.Policy, s Signals) bool {
	st := m.arms[arm{pol: p, sig: classify(s)}]
	return st != nil && st.n > 0
}

// Regret returns the cumulative normalized regret: the summed relative
// shortfall of realized throughput against the best-seen arm per
// workload class. Flat means converged.
func (m *MeasuredModel) Regret() float64 { return m.regret }

// Samples returns the total number of observations recorded.
func (m *MeasuredModel) Samples() int { return m.samples }
