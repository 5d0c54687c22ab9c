package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"anydb"
)

// Every clock reading of the benchmark is nanoseconds since epoch, so
// driver latencies and trace spans share one monotonic time line.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

const (
	setupReps       = 5  // opens per untraced run; setup_s is their median
	warmBlocks      = 2  // blocks discarded before measuring
	olapMaxInflight = 64 // open-loop queries in flight before the stream counts drops
)

type runConfig struct {
	wl      workload
	seed    uint64
	seconds float64
	trace   bool
	sc      scale
	outDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// diag is one ungated diagnostic, printed with its sample count.
type diag struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is everything one run of one workload produced. metrics
// holds the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one — exactly the set the last output line names.
type runResult struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	diags             []diag
	budget            []budgetRow
	blockRates        []float64 // ops/s of every untraced measured block, in order
}

func (r *runResult) fail(n int64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runResult) diag(name string, v float64, unit string, n int) {
	r.diags = append(r.diags, diag{name, v, unit, n})
}

// tracedBlock says whether block idx (warm-up included) records request
// spans in a traced run: every other measured block, so traced and
// untraced throughput come from the same minutes of the same cluster.
func tracedBlock(idx int) bool { return idx >= warmBlocks && (idx-warmBlocks)%2 == 1 }

// block is one equal-count measurement block of the closed-loop stream.
type block struct {
	ops    int
	dur    time.Duration
	cpu    time.Duration
	traced bool
}

// oltpSession drives one anydb.Session: a closed loop that keeps window
// transactions in flight and waits for the oldest before each submit.
type oltpSession struct {
	sess *anydb.Session
	gen  *opGen
	ops  []txnOp

	futs [window]*anydb.Future
	op   [window]int32
	t0   [window]int64
	t1   [window]int64

	lat       [2][]uint32 // submit → Wait return, ns; [0] payment, [1] new-order
	committed int64
	rolled    int64
	errs      int64
	paid      []float64 // per warehouse: sum of acknowledged payment amounts
	traces    []reqTrace
	reqBase   int64
}

func (s *oltpSession) runBlock(ctx context.Context, record, traced bool) {
	s.traces = s.traces[:0]
	head, n := 0, 0
	wait := func() {
		slot := head
		head, n = (head+1)%window, n-1
		o := &s.ops[s.op[slot]]
		t2 := now()
		ok, err := s.futs[slot].Wait(ctx)
		t3 := now()
		switch {
		case err != nil:
			s.errs++ // includes a future that never resolved (ctx deadline)
			return
		case !ok:
			s.rolled++
			return
		}
		s.committed++
		if !o.newOrder {
			s.paid[o.pay.Warehouse] += o.pay.Amount
		}
		kind := 0
		if o.newOrder {
			kind = 1
		}
		if record {
			s.lat[kind] = append(s.lat[kind], uint32(min(t3-s.t0[slot], 1<<32-1)))
		}
		if traced {
			s.traces = append(s.traces, reqTrace{
				class: uint8(kind), t0: s.t0[slot], t1: s.t1[slot], t2: t2, t3: t3,
				reqOrdinal: s.reqBase + int64(s.op[slot]),
			})
		}
	}
	for i := range s.ops {
		if n == window {
			wait()
		}
		o := &s.ops[i]
		slot := (head + n) % window
		var (
			f   *anydb.Future
			err error
		)
		s.t0[slot] = now()
		if o.newOrder {
			f, err = s.sess.SubmitNewOrder(ctx, o.no)
		} else {
			f, err = s.sess.SubmitPayment(ctx, o.pay)
		}
		if traced {
			s.t1[slot] = now()
		}
		if err != nil {
			s.errs++
			continue
		}
		s.futs[slot], s.op[slot] = f, int32(i)
		n++
	}
	for n > 0 {
		wait()
	}
	s.reqBase += int64(len(s.ops))
}

// runWorkload executes one workload once: set-up, warm-up, measured
// blocks for cfg.seconds, the correctness gate, and tear-down. With
// cfg.trace it is the traced run: half the seconds go to the workload
// with every other block traced, the other half to the layer probes.
func runWorkload(cfg runConfig) (*runResult, error) {
	wl, sc := cfg.wl, cfg.sc
	res := &runResult{metrics: map[string]metric{}}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	root, endRoot := tr.phase(wl.name, 0)
	tmp := filepath.Join(cfg.outDir, fmt.Sprintf("tmp-%s-%d", wl.name, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// The layer probes run first, in a process that has done nothing
	// else yet, so their figures do not depend on which workload follows.
	var probes map[string]metric
	if cfg.trace {
		var diags []diag
		var err error
		probes, diags, err = runProbes(time.Duration(cfg.seconds/2*float64(time.Second)), sc, cfg.seed, tmp, tr, root)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		res.diags = append(res.diags, diags...)
		runtime.GC()
		debug.FreeOSMemory()
	}

	// Set-up: Open includes populate. It is repeated and the median
	// reported, because one 0.3 s sample is not a steady figure.
	conf := sc.config(cfg.seed)
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var (
		c      *anydb.Cluster
		setups []float64
	)
	_, endOpen := tr.phase("open", root)
	for i := 0; i < reps; i++ {
		if wl.durable {
			conf.Durability, conf.WALDir = anydb.DurabilityBatch, filepath.Join(tmp, fmt.Sprintf("wal%d", i))
		}
		t := time.Now()
		var err error
		if c, err = anydb.Open(conf); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < reps-1 {
			c.Close()
			c = nil
			os.RemoveAll(conf.WALDir)
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	endOpen(int64(reps))
	defer func() { c.Close() }() // Close is idempotent; c is the reopened cluster after recovery

	// One deadline for the whole run: a future that never resolves or a
	// query that never returns fails its Wait here and is counted,
	// instead of hanging the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration((2*cfg.seconds+45)*float64(time.Second)))
	defer cancel()

	if wl.policy != anydb.SharedNothing {
		if err := c.SetPolicy(ctx, wl.policy); err != nil {
			return nil, fmt.Errorf("set policy: %w", err)
		}
	}

	// Values the answers are compared with, computed before any timing.
	ytd0, err := warehouseYTD(ctx, c, sc)
	if err != nil {
		return nil, fmt.Errorf("initial YTD: %w", err)
	}
	var olap *olapRun
	if wl.olapClients > 0 || wl.olapRate > 0 {
		olap = &olapRun{q: c, shapes: queryShapes(cfg.seed, sc), order: shapeOrder(cfg.seed), exact: wl.sessions == 0}
		if olap.want, err = precompute(ctx, c, olap.shapes); err != nil {
			return nil, fmt.Errorf("precompute: %w", err)
		}
		if olap.want[0].n != sc.totalCustomers() {
			res.fail(1, "group counts sum to %d, want %d customers", olap.want[0].n, sc.totalCustomers())
		}
	}

	// Drivers.
	blockOps := sc.count(wl.blockOps, max(wl.sessions, 1))
	sessions := make([]*oltpSession, wl.sessions)
	for i := range sessions {
		sessions[i] = &oltpSession{
			sess: c.Session(), gen: newOpGen(cfg.seed, uint64(i+1), sc, wl.hotFrac),
			ops: make([]txnOp, blockOps/wl.sessions), paid: make([]float64, sc.warehouses),
		}
	}
	var stream *openLoop
	if wl.olapRate > 0 {
		stream = &openLoop{run: olap, rate: wl.olapRate}
		stream.start(ctx)
	}
	var pool *clientPool
	if wl.olapClients > 0 {
		pool = &clientPool{run: olap, blockOps: int64(blockOps), traceOn: cfg.trace}
	}

	// nextBlock completes one equal-count block of the closed loop. The
	// sessions run theirs between two barriers, with the block's inputs
	// generated before the clock starts; the analytical clients run on,
	// and their block ends when the pool counts its last completion.
	blockIdx := 0
	var last poolMark
	nextBlock := func() block {
		traced, record := cfg.trace && tracedBlock(blockIdx), blockIdx >= warmBlocks
		blockIdx++
		if pool != nil {
			m := <-pool.marks
			b := block{ops: blockOps, dur: m.at.Sub(last.at), cpu: m.cpu - last.cpu, traced: traced}
			last = m
			return b
		}
		for _, s := range sessions {
			s.gen.fill(s.ops)
		}
		cpu0, t0 := cpuTime(), time.Now()
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func() { defer wg.Done(); s.runBlock(ctx, record, traced) }()
		}
		wg.Wait()
		b := block{ops: blockOps, dur: time.Since(t0), cpu: cpuTime() - cpu0, traced: traced}
		if traced {
			for _, s := range sessions {
				tr.addReqs(s.traces)
			}
		}
		return b
	}

	// Warm-up: pools fill, a policy switch settles, lazily built chunks
	// get built. Not measured.
	_, endWarm := tr.phase("warmup", root)
	last = poolMark{time.Now(), cpuTime()}
	warmStart := last.at
	if pool != nil {
		pool.start(ctx, wl.olapClients)
	}
	for i := 0; i < warmBlocks; i++ {
		nextBlock()
	}
	endWarm(int64(warmBlocks * blockOps))
	res.diag("warm_s", time.Since(warmStart).Seconds(), "s", warmBlocks)

	// Measure: equal-count blocks until the seconds are up.
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	var (
		blocks    []block
		rssAtMark float64
		ms0, ms1  runtime.MemStats
		markOps   = sc.count(wl.markOps, 1)
	)
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	sysw0, _ := writeSyscalls()
	measureID, endMeasure := tr.phase("measure", root)
	measureStart := now()
	for start := time.Now(); time.Since(start).Seconds() < seconds; {
		blocks = append(blocks, nextBlock())
		if rssAtMark == 0 && blockIdx*blockOps >= markOps {
			rssAtMark = peakRSSMB()
		}
	}
	measureEnd := now()
	endMeasure(int64(len(blocks) * blockOps))
	sysw1, syswOK := writeSyscalls()
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&ms1)
	if stream != nil {
		stream.finish()
	}
	var clients []*olapClient
	if pool != nil {
		pool.finish()
		clients = pool.clients
		for _, cl := range clients {
			tr.addReqs(cl.traces)
		}
	}
	for _, s := range sessions {
		s.sess.Close()
	}
	if rssAtMark == 0 {
		// A box too slow to reach the mark within the seconds reports
		// the peak it did reach; mark_reached says so.
		rssAtMark = peakRSSMB()
		res.diag("mark_reached", 0, "bool", 1)
	}

	// Reduce the closed-loop blocks. Only untraced blocks feed the
	// end-to-end figures; the traced ones give the tracing overhead.
	var tput, tputTraced, cpuPerOp []float64
	for _, b := range blocks {
		rate := float64(b.ops) / b.dur.Seconds()
		if b.traced {
			tputTraced = append(tputTraced, rate)
			continue
		}
		tput = append(tput, rate)
		cpuPerOp = append(cpuPerOp, float64(b.cpu.Nanoseconds())/float64(b.ops))
	}
	res.blockRates = tput
	q1, _, q3 := quartiles(tput)
	opName, latName := "txn", "txn"
	if wl.sessions == 0 {
		opName, latName = "query", "query"
	} else if stream != nil {
		latName = "query"
	}

	// Latency samples of the latency-critical stream, by operation
	// type: the two transaction kinds, or the four query shapes.
	classes := []string{"payment", "neworder"}
	if latName == "query" {
		classes = classes[:0]
		for _, sh := range olap.shapes {
			classes = append(classes, sh.name)
		}
	}
	byClass := make([][]float64, len(classes))
	var submitted, committed, rolled, txnErrs int64
	for _, s := range sessions {
		submitted += s.reqBase
		committed, rolled, txnErrs = committed+s.committed, rolled+s.rolled, txnErrs+s.errs
		if stream == nil {
			for k := range s.lat {
				byClass[k] = append(byClass[k], sortedNs(s.lat[k])...)
			}
		}
	}
	var queries, wrong, qErrs int64
	for _, cl := range clients {
		queries, wrong, qErrs = queries+cl.done+cl.errs, wrong+cl.wrong, qErrs+cl.errs
		for k := range cl.lat {
			byClass[k] = append(byClass[k], sortedNs(cl.lat[k])...)
		}
	}
	if stream != nil {
		var lag []float64
		for _, s := range stream.samples {
			queries++
			if s.failed {
				qErrs++
				continue
			}
			if s.due >= measureStart && s.due <= measureEnd {
				byClass[s.rt.class] = append(byClass[s.rt.class], float64(s.rt.t3-s.due))
				lag = append(lag, float64(s.launch-s.due)/1e6)
			}
			tr.addReqs([]reqTrace{s.rt})
		}
		res.diag("gen_lag_p50_ms", median(lag), "ms", len(lag))
	}
	// latency_p50_us is the mean over the operation types of each type's
	// exact median. The pooled median of a mix sits in the gap between
	// a cheap and a dear type and jumps with the mix; a type's own
	// median does not.
	var lat []float64
	var latP50 float64
	for k := range byClass {
		sort.Float64s(byClass[k])
		latP50 += percentile(byClass[k], 0.50) / float64(len(byClass))
		lat = append(lat, byClass[k]...)
	}
	sort.Float64s(lat)

	res.attempted = submitted + queries
	if txnErrs > 0 {
		res.fail(txnErrs, "%d transactions returned an error or never resolved", txnErrs)
	}
	if rolled > 0 {
		res.fail(rolled, "%d transactions rolled back although every generated one is valid", rolled)
	}
	if qErrs > 0 {
		res.fail(qErrs, "%d queries failed or were dropped", qErrs)
	}
	if wrong > 0 {
		res.fail(wrong, "%d query answers differ from the precomputed ones", wrong)
	}
	if submitted != committed+rolled+txnErrs {
		res.fail(1, "submitted %d != committed %d + rolled back %d + errors %d", submitted, committed, rolled, txnErrs)
	}

	if !cfg.trace {
		res.metrics["setup_s"] = metric{median(setups), "s"}
		res.metrics["ops_per_s"] = metric{midmean(tput), "1/s"}
		res.metrics["latency_p50_us"] = metric{latP50 / 1e3, "us"}
		res.metrics["cpu_us_per_op"] = metric{midmean(cpuPerOp) / 1e3, "us"}
		res.metrics["peak_rss_mb"] = metric{rssAtMark, "MB"}
	}
	res.diag("blocks", float64(len(tput)), "count", len(tput))
	res.diag("block_ops", float64(blockOps), "count", 1)
	res.diag(opName+"_per_s_q1", q1, "1/s", len(tput))
	res.diag(opName+"_per_s_q3", q3, "1/s", len(tput))
	res.diag(latName+"_p99_us", percentile(lat, 0.99)/1e3, "us", len(lat))
	if len(lat) >= 10000 {
		res.diag(latName+"_p999_us", percentile(lat, 0.999)/1e3, "us", len(lat))
	}
	for k, name := range classes {
		res.diag(name+"_p50_us", percentile(byClass[k], 0.5)/1e3, "us", len(byClass[k]))
	}
	if wl.sessions > 0 {
		res.diag("committed", float64(committed), "count", 1)
		res.diag("rolled_back", float64(rolled), "count", 1)
	}
	if stream != nil {
		res.diag("queries", float64(queries), "count", 1)
	}
	measuredOps := int64(len(blocks) * blockOps)
	res.diag("allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(measuredOps), "count", len(blocks))
	res.diag("heap_growth_b_per_op", float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc))/float64(measuredOps), "B", len(blocks))
	if procCPU := cpuSecondsOf(blocks); procCPU > 0 {
		res.diag("gc_cpu_frac", (gc1-gc0)/procCPU, "frac", int(ms1.NumGC-ms0.NumGC))
	}
	if pauses := gcPauses(&ms0, &ms1); len(pauses) > 0 {
		res.diag("gc_pause_p99_us", percentile(pauses, 0.99)/1e3, "us", len(pauses))
	}
	res.diag("peak_rss_end_mb", peakRSSMB(), "MB", 1)
	var groupSize float64
	if wl.durable && syswOK && sysw1 > sysw0 {
		groupSize = float64(measuredOps) / float64(sysw1-sysw0)
		res.diag("wal_group_size", groupSize, "txn/fsync", int(sysw1-sysw0))
	}

	// Correctness gate.
	_, endVerify := tr.phase("verify", root)
	verifyStart := time.Now()
	if err := c.Verify(); err != nil {
		res.fail(1, "Verify: %v", err)
	}
	if n := c.Stats().UnmatchedDone; n != 0 {
		res.fail(n, "%d completions found no waiting caller", n)
	}
	paid := make([]float64, sc.warehouses)
	for _, s := range sessions {
		for w, v := range s.paid {
			paid[w] += v
		}
	}
	checkYTD := func(c *anydb.Cluster, when string) {
		got, err := warehouseYTD(ctx, c, sc)
		if err != nil {
			res.fail(1, "YTD %s: %v", when, err)
			return
		}
		for w := range got {
			if got[w] != ytd0[w]+paid[w] {
				res.fail(1, "warehouse %d YTD %s = %.0f, want %.0f + %.0f acknowledged", w, when, got[w], ytd0[w], paid[w])
			}
		}
	}
	checkYTD(c, "after the run")
	res.diag("verify_s", time.Since(verifyStart).Seconds(), "s", 1)
	endVerify(1)

	var walBytes float64
	if wl.durable {
		// Recovery: Close, then Open on the same WALDir replays the log
		// from genesis until the cluster serves again.
		_, endClose := tr.phase("close", root)
		c.Close()
		endClose(1)
		logs, _ := filepath.Glob(filepath.Join(conf.WALDir, "wal-*.log"))
		for _, p := range logs {
			if st, err := os.Stat(p); err == nil {
				walBytes += float64(st.Size())
			}
		}
		walBytes /= float64(committed)
		res.diag("wal_run_bytes_per_txn", walBytes, "B", int(committed))
		_, endReplay := tr.phase("reopen_replay", root)
		t := time.Now()
		c2, err := anydb.Open(conf)
		rec := time.Since(t).Seconds()
		endReplay(committed)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		c = c2
		res.diag("recovery_s", rec, "s", 1)
		res.diag("recovery_us_per_txn", rec*1e6/float64(committed), "us", int(committed))
		if err := c.Verify(); err != nil {
			res.fail(1, "Verify after recovery: %v", err)
		}
		checkYTD(c, "after recovery")
	}
	_, endClose := tr.phase("close", root)
	c.Close()
	endClose(1)

	if cfg.trace {
		traceReport(cfg, res, tr, measureID, probes, tput, tputTraced, traceCtx{
			cpuPerOp: midmean(cpuPerOp), latP50: latP50, groupSize: groupSize,
		})
	}
	endRoot(res.attempted)
	if cfg.trace {
		if err := tr.flush(filepath.Join(cfg.outDir, "trace_"+wl.name+".json"), measureID); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func cpuSecondsOf(blocks []block) float64 {
	var d time.Duration
	for _, b := range blocks {
		d += b.cpu
	}
	return d.Seconds()
}

// warehouseYTD reads w_ytd of every warehouse through the SQL surface.
func warehouseYTD(ctx context.Context, c *anydb.Cluster, sc scale) ([]float64, error) {
	rows, err := c.Query(ctx, `SELECT w_id, w_ytd FROM warehouse`)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := make([]float64, sc.warehouses)
	seen := 0
	for rows.Next() {
		var w int64
		var ytd float64
		if err := rows.Scan(&w, &ytd); err != nil {
			return nil, err
		}
		out[w] = ytd
		seen++
	}
	if seen != sc.warehouses {
		return nil, fmt.Errorf("warehouse table has %d rows, want %d", seen, sc.warehouses)
	}
	return out, nil
}

// gcCPUSeconds is the CPU the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// gcPauses returns the stop-the-world pauses (ns) of the collections
// between two MemStats readings, as far as the runtime's 256-entry
// ring still holds them.
func gcPauses(a, b *runtime.MemStats) []float64 {
	n := min(b.NumGC-a.NumGC, uint32(len(b.PauseNs)))
	out := make([]float64, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, float64(b.PauseNs[(b.NumGC-1-i)%uint32(len(b.PauseNs))]))
	}
	sort.Float64s(out)
	return out
}
