package bench

import (
	"fmt"
	"strings"

	"anydb/internal/metrics"
	"anydb/internal/sim"
	"anydb/internal/tpcc"
)

// AblationRow quantifies the event-machinery cost of each routing mode
// (the Figure 4 duality made measurable): how many events and cross-AC
// hops one transaction costs, and what throughput that buys under skew.
type AblationRow struct {
	Mode         string
	EventsPerTxn float64
	Throughput   float64 // M tx/s in the skewed phase
	ExecUtil     []float64
}

// Ablation runs each AnyDB mode on the skewed workload and reports
// events/txn, throughput, and executor utilization — the data behind
// §3.2's "overhead of parallelizing within one transaction dominates".
func Ablation(opts OLTPOpts) []AblationRow {
	var rows []AblationRow
	for _, v := range fig5Variants() {
		db, cfg := tpcc.NewDatabase(opts.Cfg)
		a := NewAnyDB(db, cfg, sim.DefaultCosts())
		a.SetPolicy(v.policy)
		gen := tpcc.NewGenerator(cfg, tpcc.Skewed(), opts.Seed)
		a.SetWorkload(gen)
		a.Prime(opts.Outstanding)
		a.Cl.RunUntil(opts.PhaseDur)
		committed, _, _ := a.TakeWindow()

		var events int64
		for _, id := range a.Cl.Topo.AllACs() {
			events += a.Cl.AC(id).EventsHandled
		}
		var utils []float64
		for _, id := range a.Asm.Lay.Execs {
			utils = append(utils, a.Cl.Actor(id).Utilization())
		}
		row := AblationRow{
			Mode:       v.label,
			Throughput: mtps(committed, opts.PhaseDur),
			ExecUtil:   utils,
		}
		if committed > 0 {
			row.EventsPerTxn = float64(events) / float64(committed)
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderAblation formats the ablation table.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation — event machinery cost per routing mode (skewed payment)\n\n")
	fmt.Fprintf(&b, "%-26s %12s %12s  %s\n", "mode", "events/txn", "M tx/s", "executor utilization")
	for _, r := range rows {
		var u []string
		for _, v := range r.ExecUtil {
			u = append(u, fmt.Sprintf("%.2f", v))
		}
		fmt.Fprintf(&b, "%-26s %12.1f %12.2f  [%s]\n",
			r.Mode, r.EventsPerTxn, r.Throughput, strings.Join(u, " "))
	}
	return b.String()
}

// Headline summarizes the key paper-vs-measured anchors for Figure 5
// (used by EXPERIMENTS.md and the CLI).
func Headline(series []*metrics.Series) string {
	avg := func(label string, from, to int) float64 {
		for _, s := range series {
			if s.Label == label {
				sum := 0.0
				for i := from; i <= to && i < len(s.Points); i++ {
					sum += s.Points[i]
				}
				return sum / float64(to-from+1)
			}
		}
		return 0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "skewed-phase anchors (paper → measured, M tx/s):\n")
	fmt.Fprintf(&b, "  DBx1000 4TE        0.7 → %.2f\n", avg("DBx1000 4TE", 3, 5))
	fmt.Fprintf(&b, "  naive intra-txn    0.8 → %.2f\n", avg("AnyDB Static Intra-Txn", 3, 5))
	fmt.Fprintf(&b, "  precise intra-txn  1.2 → %.2f\n", avg("AnyDB Precise Intra-Txn", 3, 5))
	fmt.Fprintf(&b, "  streaming CC       1.7 → %.2f\n", avg("AnyDB Streaming CC", 3, 5))
	fmt.Fprintf(&b, "partitionable-phase anchors:\n")
	fmt.Fprintf(&b, "  DBx1000 4TE        2.0 → %.2f\n", avg("DBx1000 4TE", 0, 2))
	fmt.Fprintf(&b, "  AnyDB shared-nothing 2.0 → %.2f\n", avg("AnyDB Shared-Nothing", 0, 2))
	return b.String()
}
