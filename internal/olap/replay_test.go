package olap_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/plan"
	"anydb/internal/sql"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// TestSharedReplaysBesideWriters runs memoStatements from four clients
// at once on the goroutine runtime, while a writer keeps rewriting
// c_state and o_entry_d cells with their own values on the partitions'
// owner ACs: every write restamps a chunk, so the scans keep storing new
// batches and dropping the holds on the old ones while other queries'
// joins and sinks still read them, and joins and sinks keep switching
// between reusing what they built and building anew. Every answer must
// be the static one, and once the engine stopped and every Worker
// released what it keeps, no pooled object may be outstanding. Run it
// with -race: replayed batches are read from several ACs at once.
func TestSharedReplaysBesideWriters(t *testing.T) {
	core.TrackPools(true)
	defer core.TrackPools(false)
	cfg := tpcc.Config{Warehouses: 2, Districts: 2, Customers: 300,
		Items: 20, InitOrders: 300, Seed: 3}.WithDefaults()
	db, _ := tpcc.NewDatabase(cfg)
	want := naiveAnswers(db, cfg)
	topo := core.NewTopology(db)
	owners, compute := topo.AddServer(cfg.Warehouses), topo.AddServer(3)
	for w := range cfg.Warehouses {
		topo.SetOwner(w, owners[w])
	}
	var workers []*olap.Worker
	eng := core.NewEngine(topo, func(ac *core.AC) {
		w := &olap.Worker{DB: db}
		workers = append(workers, w)
		ac.Register(core.EvInstallOp, w)
		ac.Register(core.EvQuery, &plan.QO{Topo: topo})
		// The writer's cell rewrites run on the owner's goroutine, like
		// the transactions that own the partition.
		ac.Register(core.EvControl, core.BehaviorFunc(func(_ core.Context, _ *core.AC, ev *core.Event) {
			ev.Payload.(func())()
			core.FreeEvent(ev)
		}))
	})
	var mu sync.Mutex
	waiting := map[core.QueryID]chan *olap.QueryResult{}
	eng.SetClient(func(ev *core.Event) {
		if r, ok := ev.Payload.(*olap.QueryResult); ok {
			mu.Lock()
			ch := waiting[r.Query]
			delete(waiting, r.Query)
			mu.Unlock()
			ch <- r
		}
	})
	parts := []int{0, 1}
	var nextQ core.QueryID
	query := func(stmt *sql.Query) (*olap.QueryResult, error) {
		mu.Lock()
		nextQ++
		qid := nextQ
		ch := make(chan *olap.QueryResult, 1)
		waiting[qid] = ch
		mu.Unlock()
		p, err := plan.CompileSQL(db.Catalog, stmt, qid, parts, compute[:2], core.ClientAC)
		if err != nil {
			return nil, err
		}
		ev := core.GetEvent()
		ev.Kind, ev.Query, ev.Payload = core.EvQuery, qid, p
		eng.Inject(compute[2], ev)
		select {
		case r := <-ch:
			return r, nil
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("query %d: no result", qid)
		}
	}
	stmts := make([]*sql.Query, len(memoStatements))
	for i, text := range memoStatements {
		q, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = q
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			w := n % cfg.Warehouses
			ev := core.GetEvent()
			ev.Kind = core.EvControl
			ev.Payload = func() {
				for _, tc := range []struct{ table, col string }{{tpcc.TCustomer, "c_state"}, {tpcc.TOrders, "o_entry_d"}} {
					tb := db.Partition(w).Table(tc.table)
					slot, col := int32(n/2%tb.NumColChunks())<<storage.ColChunkShift, tb.Schema.MustCol(tc.col)
					tb.UpdateAt(slot, col, tb.Field(slot, col))
				}
			}
			eng.Inject(topo.Owner(w), ev)
		}
	}()
	errs := make(chan error, 4)
	var clients sync.WaitGroup
	for c := range 4 {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for n := range 12 * len(stmts) {
				i := (n + c) % len(stmts)
				res, err := query(stmts[i])
				if err != nil {
					errs <- err
					return
				}
				if got := formatRows(resultRows(res), memoGrouped[i]); got != want[i] {
					errs <- fmt.Errorf("client %d, statement %d:\n got %s\nwant %s", c, i, got, want[i])
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	<-writerDone
	eng.Stop()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var reused olap.Work
	for _, w := range workers {
		reused = reused.Add(w.Work())
		w.Release()
	}
	if reused.ReusedBuilds == 0 || reused.ReusedMerges == 0 {
		t.Errorf("no reuse beside the writer: %d builds and %d merges reused", reused.ReusedBuilds, reused.ReusedMerges)
	}
	if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
		t.Errorf("pooled objects outstanding after Stop and Release: %s", core.PoolBalanceString())
	}
}
