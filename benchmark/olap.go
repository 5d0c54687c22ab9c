package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// clientPool is olap_shared's closed loop: clients parked on Query, each
// issuing its next query only when the previous one is drained and
// checked. The clients never stop at a block boundary — a barrier would
// idle seven of them behind the slowest query — so a block is the time
// between every blockOps-th completion, whichever client made it.
type clientPool struct {
	run      *olapRun
	blockOps int64
	traceOn  bool

	done  atomic.Int64 // completions so far, warm-up included
	stop  atomic.Bool
	marks chan poolMark // one per completed block, in order
	wg    sync.WaitGroup

	clients []*olapClient
}

// poolMark is the instant a block's last query completed.
type poolMark struct {
	at  time.Time
	cpu time.Duration
}

// olapClient is one client's private tally.
type olapClient struct {
	lat    [4][]uint32 // per shape: Query call → Rows.Close after the last row, ns
	done   int64
	wrong  int64
	errs   int64
	traces []reqTrace
}

// start launches n clients; client i begins i shapes into the rotation
// so the in-flight set is a mix of shapes from the first instant.
func (p *clientPool) start(ctx context.Context, n int) {
	// Buffered far beyond the blocks a run can complete, so a client
	// never waits on the reader.
	p.marks = make(chan poolMark, 1<<16)
	for i := 0; i < n; i++ {
		cl := &olapClient{}
		p.clients = append(p.clients, cl)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for q := i; !p.stop.Load(); q++ {
				blk := int(p.done.Load() / p.blockOps) // the block this query starts in
				rt, err, right := p.run.one(ctx, q)
				if n := p.done.Add(1); n%p.blockOps == 0 {
					p.marks <- poolMark{time.Now(), cpuTime()}
				}
				switch {
				case err != nil:
					cl.errs++
					continue
				case !right:
					cl.wrong++
				}
				cl.done++
				if blk >= warmBlocks {
					cl.lat[rt.class] = append(cl.lat[rt.class], uint32(min(rt.t3-rt.t0, 1<<32-1)))
				}
				if p.traceOn && tracedBlock(blk) {
					rt.reqOrdinal = int64(q)
					cl.traces = append(cl.traces, rt)
				}
			}
		}()
	}
}

// finish lets every client complete the query it is on.
func (p *clientPool) finish() {
	p.stop.Store(true)
	p.wg.Wait()
}

// olapRun is what the analytical side of a run shares.
type olapRun struct {
	q      querier
	shapes []queryShape
	order  [4]int
	want   []answer
	exact  bool
}

// one runs the i-th query of a stream and reports its trace and whether
// the answer held.
func (o *olapRun) one(ctx context.Context, i int) (rt reqTrace, err error, right bool) {
	si := o.order[i%len(o.order)]
	rt = reqTrace{query: true, class: uint8(si), t0: now()}
	rows, err := o.q.Query(ctx, o.shapes[si].sql)
	rt.t1 = now()
	rt.t2 = rt.t1
	if err != nil {
		rt.t3 = rt.t1
		return rt, err, false
	}
	got, err := drain(rows, si)
	rows.Close()
	rt.t3 = now()
	return rt, err, err == nil && check(si, got, o.want[si], o.exact)
}

// openLoop is htap's analytical stream: query k is due at start + k/rate
// whatever the system is doing, and its latency runs from that due time,
// so a stall is charged to every query it delays.
type openLoop struct {
	run  *olapRun
	rate float64

	mu       sync.Mutex
	samples  []olSample
	inflight atomic.Int64
	stop     chan struct{}
	wg       sync.WaitGroup
}

type olSample struct {
	due, launch int64
	rt          reqTrace
	failed      bool // error, wrong answer, or dropped because olapMaxInflight were pending
}

func (o *openLoop) start(ctx context.Context) {
	o.stop = make(chan struct{})
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		start := now()
		period := float64(time.Second) / o.rate
		timer := time.NewTimer(0)
		defer timer.Stop()
		for k := 0; ; k++ {
			due := start + int64(float64(k)*period)
			timer.Reset(time.Duration(due - now()))
			select {
			case <-o.stop:
				return
			case <-timer.C:
			}
			launch := now()
			if o.inflight.Load() >= olapMaxInflight {
				o.record(olSample{due: due, launch: launch, failed: true})
				continue
			}
			o.inflight.Add(1)
			o.wg.Add(1)
			go func() {
				defer o.wg.Done()
				rt, err, right := o.run.one(ctx, k)
				o.inflight.Add(-1)
				rt.reqOrdinal = int64(k)
				o.record(olSample{due: due, launch: launch, rt: rt, failed: err != nil || !right})
			}()
		}
	}()
}

func (o *openLoop) record(s olSample) {
	o.mu.Lock()
	o.samples = append(o.samples, s)
	o.mu.Unlock()
}

// finish stops the generator and waits for every query in flight.
func (o *openLoop) finish() {
	close(o.stop)
	o.wg.Wait()
}
