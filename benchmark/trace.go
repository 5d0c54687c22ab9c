package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// span is one traced interval, recorded by the benchmark around its own
// calls into the system (spans inside the program are a later change).
// Times are nanoseconds on the benchmark's clock (now). Spans of one request
// share Req; Parent is the ID of the span that caused this one, 0 for a
// root. Count is the number of operations a phase or probe span covers.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// reqTrace is the compact in-flight form of one request's three spans:
// the request itself and its two children (txn{submit, ack_wait} or
// query{query_call, rows_drain}), as four clock readings.
type reqTrace struct {
	query      bool
	class      uint8 // transaction kind or query shape
	t0, t1     int64 // child 1: submit / query_call
	t2, t3     int64 // child 2: ack_wait / rows_drain; the request is t0..t3
	reqOrdinal int64
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, which is how the untraced run executes the same code.
type tracer struct {
	mu sync.Mutex
	// phases are the per-workload and per-probe spans; reqs the
	// per-request ones, appended by each driver goroutine under mu only
	// once per block.
	phases []span
	reqs   []reqTrace
}

// phase opens a phase span and returns the function that closes it with
// its operation count.
func (t *tracer) phase(name string, parent int32) (id int32, end func(count int64)) {
	if t == nil {
		return 0, func(int64) {}
	}
	t.mu.Lock()
	t.phases = append(t.phases, span{ID: int32(len(t.phases) + 1), Parent: parent, Name: name, Start: now()})
	id = int32(len(t.phases))
	t.mu.Unlock()
	return id, func(count int64) {
		t.mu.Lock()
		t.phases[id-1].End, t.phases[id-1].Count = now(), count
		t.mu.Unlock()
	}
}

func (t *tracer) addReqs(rs []reqTrace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reqs = append(t.reqs, rs...)
	t.mu.Unlock()
}

// reqSpans expands request traces into spans under parent, numbering
// them after the phase spans.
func (t *tracer) reqSpans(rs []reqTrace, parent int32) []span {
	out := make([]span, 0, 3*len(rs))
	next := int32(len(t.phases))
	for _, r := range rs {
		names := [3]string{"txn", "submit", "ack_wait"}
		if r.query {
			names = [3]string{"query", "query_call", "rows_drain"}
		}
		root := next + 1
		next += 3
		out = append(out,
			span{ID: root, Parent: parent, Req: r.reqOrdinal, Name: names[0], Start: r.t0, End: r.t3},
			span{ID: root + 1, Parent: root, Req: r.reqOrdinal, Name: names[1], Start: r.t0, End: r.t1},
			span{ID: root + 2, Parent: root, Req: r.reqOrdinal, Name: names[2], Start: r.t2, End: r.t3})
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int32]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, end := int64(0), s.Start
		for _, v := range ivs {
			if v.hi > end {
				covered += v.hi - max(v.lo, end)
				end = v.hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// traceFileReqs caps the per-request spans written to the trace file;
// the aggregates printed from the trace use every request recorded.
const traceFileReqs = 20000

// flush writes the phase spans and the first traceFileReqs requests'
// spans as JSON.
func (t *tracer) flush(path string, reqParent int32) error {
	rs := t.reqs[:min(len(t.reqs), traceFileReqs)]
	doc := struct {
		Note  string `json:"note"`
		Reqs  int    `json:"requests_recorded"`
		Spans []span `json:"spans"`
	}{
		Note:  "times in ns since process start; request spans capped, aggregates use all",
		Reqs:  len(t.reqs),
		Spans: append(append([]span(nil), t.phases...), t.reqSpans(rs, reqParent)...),
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
