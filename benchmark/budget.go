package main

import (
	"fmt"
	"io"
	"sort"
)

// budgetRow is one line of a workload's layer budget: what one
// operation of the workload is estimated to spend in a layer, from that
// layer's standalone probe times the number of such calls one operation
// makes, as a share of the measured whole.
type budgetRow struct {
	Layer string  `json:"layer"`
	Basis string  `json:"basis"`
	US    float64 `json:"us_per_op"`
	Share float64 `json:"share"`
}

// traceCtx carries the traced run's own end-to-end figures into the
// budget (the gated ones always come from the untraced run).
type traceCtx struct {
	cpuPerOp  float64 // ns of process CPU per closed-loop op, untraced blocks
	latP50    float64 // ns, latency-critical stream
	groupSize float64 // transactions per log fsync, 0 when unknown
}

// Calls one operation makes into each layer. A shared-nothing
// transaction is EvTxn → owner, EvSegment and EvAck on the owner, and
// the completion to the client: 4 messages, plus a segment and an ack
// for the 15 % of payments and ~10 % of new-orders (1-0.99^10) that
// touch a second warehouse. The oltp probes run whole op programs on
// the row heap, so storage's share of a transaction is inside their
// figure; storage_get_ns and storage_insert_ns say which way it moved.
const msgsPerTxn = 4 + 2*(0.5*0.15+0.5*0.096)

// traceReport turns the traced run into the per-layer metrics and the
// layer budget: it aggregates the request spans and sets each layer
// probe's cost per operation against the workload's own measured cost.
// What the probes do not explain is reported as unattributed, not
// guessed.
func traceReport(cfg runConfig, res *runResult, tr *tracer, measureID int32, probes map[string]metric, tput, tputTraced []float64, tc traceCtx) {
	wl := cfg.wl

	// Request spans: medians of the two children and of the parent's
	// self time (what passes between them: the transaction in flight
	// behind the window, or nothing for a query).
	spans := tr.reqSpans(tr.reqs, measureID)
	self := selfTimes(spans)
	durs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		if s.Parent == measureID {
			durs[s.Name+".self"] = append(durs[s.Name+".self"], float64(self[s.ID]))
		}
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.diag("span_"+n+"_p50_us", median(durs[n])/1e3, "us", len(durs[n]))
	}
	req, issue, complete := "txn", "submit", "ack_wait"
	if wl.sessions == 0 {
		req, issue, complete = "query", "query_call", "rows_drain"
	}
	res.metrics["anydb_issue_us"] = metric{median(durs[issue]) / 1e3, "us"}
	res.metrics["anydb_complete_us"] = metric{median(durs[complete]) / 1e3, "us"}
	res.metrics["anydb_inflight_us"] = metric{median(durs[req+".self"]) / 1e3, "us"}
	res.metrics["trace_overhead_frac"] = metric{1 - midmean(tputTraced)/midmean(tput), "frac"}

	for k, v := range probes {
		res.metrics[k] = v
	}
	p := func(name string) float64 { return probes[name].Value }

	// The budget. OLTP workloads are set against CPU per transaction;
	// the query workloads against the median query latency, which for
	// htap is the figure the chunk rebuild is predicted to explain.
	var rows []budgetRow
	var whole float64
	add := func(layer, basis string, ns float64) {
		rows = append(rows, budgetRow{Layer: layer, Basis: basis, US: ns / 1e3, Share: ns / whole})
	}
	customers := float64(cfg.sc.totalCustomers())
	chunks := float64(cfg.sc.warehouses) * float64((cfg.sc.districts*cfg.sc.customers+2047)/2048)
	switch {
	case wl.olapRate > 0:
		whole = tc.latP50
		add("sql+plan", "1 × plan_compile_us", p("plan_compile_us")*1e3)
		add("storage", fmt.Sprintf("%.0f customer chunks × storage_chunk_rebuild_us / %d owners (every chunk dirty between queries)", chunks, cfg.sc.warehouses),
			chunks*p("storage_chunk_rebuild_us")*1e3/float64(cfg.sc.warehouses))
		add("olap", fmt.Sprintf("%.0f customer rows × olap_scan_ns_per_row / %d owners", customers, cfg.sc.warehouses),
			customers*p("olap_scan_ns_per_row")/float64(cfg.sc.warehouses))
	case wl.sessions == 0:
		whole = tc.cpuPerOp
		add("sql+plan", "1 × plan_compile_us", p("plan_compile_us")*1e3)
		add("storage", fmt.Sprintf("%.0f clean customer chunks × storage_chunk_hit_ns", chunks), chunks*p("storage_chunk_hit_ns"))
		add("olap", fmt.Sprintf("%.0f customer rows × olap_scan_ns_per_row × olap_share_ratio (8 in flight)", customers),
			customers*p("olap_scan_ns_per_row")*p("olap_share_ratio"))
		add("anydb", "rows_drain span (client iterating the result)", median(durs["rows_drain"]))
	default:
		whole = tc.cpuPerOp
		add("anydb", "submit span (client side of the submit plane)", median(durs["submit"]))
		add("stream", fmt.Sprintf("%.2f msgs × stream_msg_ns", msgsPerTxn), msgsPerTxn*p("stream_msg_ns"))
		add("core", fmt.Sprintf("%.2f msgs × (core_fanout_ns/9 − stream_msg_ns)", msgsPerTxn),
			msgsPerTxn*max(p("core_fanout_ns")/9-p("stream_msg_ns"), 0))
		add("oltp+storage", "(oltp_payment_ns + oltp_neworder_ns)/2: the op programs on the row heap, single thread", (p("oltp_payment_ns")+p("oltp_neworder_ns"))/2)
		if wl.durable {
			g := tc.groupSize
			if g == 0 {
				g = window // /proc/self/io unavailable: assume one window per fsync
			}
			add("wal", fmt.Sprintf("wal_append_ns + wal_flush_cpu_us / %.1f txns per fsync (the fsync wait, wal_flush_us − cpu, is not CPU)", g),
				p("wal_append_ns")+p("wal_flush_cpu_us")*1e3/g)
		}
	}
	var explained float64
	for _, r := range rows {
		explained += r.Share
	}
	rows = append(rows, budgetRow{Layer: "unattributed", Basis: "the rest: scheduler, GC, futures, driver loop, waiting", US: whole / 1e3 * (1 - explained), Share: 1 - explained})
	res.budget = rows
	res.metrics["unattributed_frac"] = metric{1 - explained, "frac"}
}

func printBudget(w io.Writer, wl workload, rows []budgetRow) {
	whole := "cpu_us_per_op"
	if wl.olapRate > 0 {
		whole = "latency_p50_us"
	}
	fmt.Fprintf(w, "\nlayer budget for one %s op, as a share of the traced run's %s:\n", wl.name, whole)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-13s %10.3f us  %6.1f %%  %s\n", r.Layer, r.US, 100*r.Share, r.Basis)
	}
}
