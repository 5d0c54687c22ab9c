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

// Work returns the worker's counts of chunk predicate evaluations,
// key-filter passes and grouped folds.
func (w *Worker) Work() (evals, keeps, folds int) { return w.evals, w.keeps, w.folds }
