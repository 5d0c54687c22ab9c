package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// contract is the part of BENCHMARK.json the self-check needs.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// calibrate returns a spin-loop score (iterations per millisecond of a
// fixed integer loop, best of five): a figure that moves only when the
// box itself does, taken around each self-check run.
func calibrate() float64 {
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		const n = 20_000_000
		x, t := uint64(88172645463325252), time.Now()
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if x == 0 {
			return 0 // unreachable: xorshift has no zero state; keeps the loop alive
		}
		best = max(best, n/float64(time.Since(t).Microseconds())*1e3)
	}
	return best
}

// child runs one workload in a process of its own — so peak RSS and the
// heap belong to that workload alone — and returns what it printed last.
func child(name string, seed uint64, seconds, factor float64, outDir string, trace int) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-scale", fmt.Sprint(factor), "-out", outDir, "-trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Println()
	var rl resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &rl); err != nil {
		return rl, fmt.Errorf("%s: no result line (%v): %w", name, runErr, err)
	}
	return rl, nil
}

// runSuite runs every workload (timed, and traced too when asked) and
// returns the process exit code. With selfcheck it runs each workload
// twice on this same tree, alternating which of the pair is called A,
// prints both values and the relative gap of every gated metric, and
// fails when a gap exceeds the metric's bound.
func runSuite(seed uint64, seconds, factor float64, outDir string, traced, selfcheck bool) int {
	var con contract
	if selfcheck {
		b, err := os.ReadFile("BENCHMARK.json")
		if err == nil {
			err = json.Unmarshal(b, &con)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -selfcheck needs BENCHMARK.json in the working directory:", err)
			return 2
		}
	}
	code := 0
	type pair struct{ a, b resultLine }
	pairs := map[string]pair{}
	var all []map[string]any
	timed := func(name string) (resultLine, bool) {
		// A run between two calibration scores more than a tenth apart
		// shared the box with something; it is flagged and repeated once.
		for attempt := 0; ; attempt++ {
			before := calibrate()
			rl, err := child(name, seed, seconds, factor, outDir, 0)
			drift := math.Abs(calibrate()/before - 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return rl, false
			}
			if !selfcheck || drift <= 0.10 || attempt == 1 {
				if drift > 0.10 {
					fmt.Printf("%s: noisy (calibration drifted %.1f %% again), kept\n", name, 100*drift)
				}
				return rl, rl.Correct
			}
			fmt.Printf("%s: noisy (calibration drifted %.1f %%), repeating once\n", name, 100*drift)
		}
	}
	for i, wl := range workloads {
		first, ok := timed(wl.name)
		if !ok {
			code = 1
		}
		all = append(all, map[string]any{"workload": wl.name, "trace": 0, "result": first})
		if selfcheck {
			second, ok := timed(wl.name)
			if !ok {
				code = 1
			}
			all = append(all, map[string]any{"workload": wl.name, "trace": 0, "result": second})
			if i%2 == 1 { // A-B-B-A: the second run of every other pair is A
				first, second = second, first
			}
			pairs[wl.name] = pair{first, second}
		}
		if traced {
			rl, err := child(wl.name, seed, seconds, factor, outDir, 1)
			if err != nil || !rl.Correct {
				code = 1
			}
			all = append(all, map[string]any{"workload": wl.name, "trace": 1, "result": rl})
		}
	}
	if selfcheck {
		fmt.Printf("\nA/A self-check: %-16s %-16s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "gap", "bound")
		for _, wl := range workloads {
			for _, m := range con.EndToEnd {
				a, b := pairs[wl.name].a.Metrics[m.Name].Value, pairs[wl.name].b.Metrics[m.Name].Value
				gap := math.Abs(a-b) / math.Min(a, b)
				verdict := ""
				if !(gap <= m.Bound) {
					verdict, code = "  EXCEEDS", 1
				}
				fmt.Printf("                %-16s %-16s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", wl.name, m.Name, a, b, 100*gap, 100*m.Bound, verdict)
			}
		}
	}
	doc := map[string]any{"env": describeEnv(seed, newScale(factor), seconds), "runs": all}
	if b, err := json.MarshalIndent(doc, "", " "); err == nil {
		if err := os.WriteFile(filepath.Join(outDir, "result.json"), b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	return code
}
