package olap

import (
	"fmt"

	"anydb/internal/core"
	"anydb/internal/sim"
	"anydb/internal/storage"
)

// KeyFilterOf returns the filter a join whose build side holds keys —
// one batch of them — hands its probe-side scans, over the probe key
// columns cols.
func KeyFilterOf(cols []string, keys [][]int64) *KeyFilter {
	kc := make([]storage.Column, len(cols))
	names := make([]string, len(cols))
	for i := range kc {
		names[i] = fmt.Sprintf("k%d", i)
		kc[i] = storage.Column{Name: names[i], Kind: storage.KInt}
	}
	b := storage.NewBatch(storage.NewSchema("build", kc...))
	for _, k := range keys {
		row := make(storage.Row, len(cols))
		for i := range row {
			row[i] = storage.Int(k[i])
		}
		b.AppendRow(row)
	}
	st := &joinState{spec: &JoinSpec{BuildKey: names, BuildOut: names, Notify: core.NoAC}, ht: &joinTable{}}
	(*joinBuildSink)(st).OnData(&flushSink{costs: sim.DefaultCosts()}, nil, &core.DataMsg{Batch: b})
	st.closeBuild()
	return st.box.filter(cols)
}

// Work is what a Worker did and what its memos spared it (workCounts).
type Work struct {
	Evals, Keeps, Folds, Gathered int
	Builds, ReusedBuilds          int
	Merges, ReusedMerges          int
	ReplayedJoins                 int
}

// Work returns the worker's counts.
func (w *Worker) Work() Work {
	c := w.work
	return Work{c.evals, c.keeps, c.folds, c.gathered, c.builds, c.reusedBuilds, c.merges, c.reusedMerges, c.replayedJoins}
}

// Sub returns the counts of a minus those of b.
func (a Work) Sub(b Work) Work {
	return Work{a.Evals - b.Evals, a.Keeps - b.Keeps, a.Folds - b.Folds, a.Gathered - b.Gathered,
		a.Builds - b.Builds, a.ReusedBuilds - b.ReusedBuilds, a.Merges - b.Merges, a.ReusedMerges - b.ReusedMerges,
		a.ReplayedJoins - b.ReplayedJoins}
}

// Add returns the counts of a plus those of b.
func (a Work) Add(b Work) Work {
	return Work{a.Evals + b.Evals, a.Keeps + b.Keeps, a.Folds + b.Folds, a.Gathered + b.Gathered,
		a.Builds + b.Builds, a.ReusedBuilds + b.ReusedBuilds, a.Merges + b.Merges, a.ReusedMerges + b.ReusedMerges,
		a.ReplayedJoins + b.ReplayedJoins}
}
