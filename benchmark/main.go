// Command benchmark is the repository's real-runtime benchmark: it
// drives the public anydb API on the goroutine runtime through five
// HTAP workloads, checks every answer, and prints end-to-end metrics
// (untraced run) or per-layer metrics and a layer budget (traced run).
// BENCHMARK.json at the repository root is its contract; README.md here
// is its manual.
//
//	benchmark/run.sh --workload htap --seed 1 --seconds 12 --trace 0
//	benchmark/run.sh -seed 1 -trace 1      # every workload, timed and traced
//	benchmark/run.sh -selfcheck            # A/A: two sets of runs of one tree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is what two result files must agree on to be comparable.
type environment struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	Seed       uint64         `json:"seed"`
	Scale      float64        `json:"scale"`
	Seconds    float64        `json:"seconds"`
	OpCounts   map[string]any `json:"frozen_op_counts"`
}

func describeEnv(seed uint64, sc scale, seconds float64) environment {
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil { // only in a working tree: git must not search above it
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	counts := map[string]any{
		"window": window, "setup_reps": setupReps, "warm_blocks": warmBlocks,
		"warehouses": sc.warehouses, "districts": sc.districts, "customers_per_district": sc.customers,
		"initial_orders_per_district": sc.orders, "items": sc.items,
	}
	for _, w := range workloads {
		counts[w.name] = map[string]any{
			"sessions": w.sessions, "olap_clients": w.olapClients, "olap_rate_per_s": w.olapRate,
			"block_ops": sc.count(w.blockOps, max(w.sessions, w.olapClients)), "mark_ops": sc.count(w.markOps, 1),
		}
	}
	return environment{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(), Seed: seed, Scale: sc.factor,
		Seconds: seconds, OpCounts: counts,
	}
}

// resultLine is the last line of standard output: the contract with
// whatever runs the benchmark.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what one run leaves in the out directory.
type resultFile struct {
	Workload string      `json:"workload"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`
	resultLine
	Problems []string    `json:"problems,omitempty"`
	Diags    []diag      `json:"diagnostics"`
	Budget   []budgetRow `json:"layer_budget,omitempty"`
	// BlockRates is the series ops_per_s is the median of, for anyone
	// asking where a run's noise came from.
	BlockRates []float64 `json:"block_ops_per_s"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run; empty runs every workload, each in its own process")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 12, "seconds one run measures")
		trace     = flag.Int("trace", 0, "1: the traced run (per-layer metrics, layer budget, trace file); with no -workload, run both")
		factor    = flag.Float64("scale", 1, "data and op-count scale; 1 is the frozen benchmark scale")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for result and trace files and temporary logs")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice (A/A) and hold the gaps to the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *factor <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-scale f] [-out dir] [-selfcheck]")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runSuite(*seed, *seconds, *factor, *outDir, *trace == 1, *selfcheck))
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, sc: newScale(*factor), outDir: *outDir}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rf := resultFile{
		Workload: wl.name, Trace: cfg.trace, Env: describeEnv(cfg.seed, cfg.sc, cfg.seconds),
		resultLine: resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics},
		Problems:   res.problems, Diags: res.diags, Budget: res.budget, BlockRates: res.blockRates,
	}
	report(rf, wl)
	if b, err := json.MarshalIndent(rf, "", " "); err == nil {
		err = os.WriteFile(filepath.Join(*outDir, fmt.Sprintf("result_%s_trace%d.json", wl.name, *trace)), b, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
	}
	line, err := json.Marshal(rf.resultLine)
	if err != nil { // a NaN metric: a run too short to sample every operation type
		fmt.Fprintln(os.Stderr, "benchmark: no result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rf.Correct {
		os.Exit(1)
	}
}

// report prints one run for a reader: every metric by name with its
// unit, the diagnostics with their sample counts, the layer budget, and
// anything the correctness gate found.
func report(rf resultFile, wl workload) {
	kind := "end-to-end metrics (untraced run)"
	if rf.Trace {
		kind = "per-layer metrics (traced run)"
	}
	fmt.Printf("%s  seed %d  scale %g  %s\n", rf.Workload, rf.Env.Seed, rf.Env.Scale, kind)
	names := make([]string, 0, len(rf.Metrics))
	for n := range rf.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, rf.Metrics[n].Value, rf.Metrics[n].Unit)
	}
	fmt.Printf("  %-28s %14.6f frac  (attempted %d, failed %d)\n", "failed_frac",
		float64(rf.Failed)/float64(max(rf.Attempted, 1)), rf.Attempted, rf.Failed)
	fmt.Println("diagnostics (ungated):")
	for _, d := range rf.Diags {
		fmt.Printf("  %-28s %14.4f %-10s n=%d\n", d.Name, d.Value, d.Unit, d.N)
	}
	if rf.Budget != nil {
		printBudget(os.Stdout, wl, rf.Budget)
	}
	for _, p := range rf.Problems {
		fmt.Println("INCORRECT:", p)
	}
}
