package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Same seed, same inputs; another seed or another stream, other inputs.
func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	sc := newScale(1)
	a, b := streamHash(7, 1, sc, 0.9, 5000), streamHash(7, 1, sc, 0.9, 5000)
	if a != b {
		t.Fatalf("same seed and stream hashed to %x and %x", a, b)
	}
	for name, other := range map[string]uint64{
		"seed":     streamHash(8, 1, sc, 0.9, 5000),
		"stream":   streamHash(7, 2, sc, 0.9, 5000),
		"hot frac": streamHash(7, 1, sc, 0, 5000),
	} {
		if other == a {
			t.Errorf("changing the %s left the op-stream hash at %x", name, a)
		}
	}
	if shapeOrder(1) != [4]int{1, 2, 3, 0} || shapeOrder(6) != [4]int{2, 3, 0, 1} {
		t.Errorf("shape rotation: seed 1 gives %v, seed 6 gives %v", shapeOrder(1), shapeOrder(6))
	}
}

func TestPercentileAndQuartilesAgainstHandValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.05, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	// The middle half of 1..8 is 3..6.
	if got := midmean([]float64{8, 1, 7, 2, 6, 3, 5, 4}); got != 4.5 {
		t.Errorf("midmean(1..8) = %v, want 4.5", got)
	}
	// One wild block does not move it.
	if got := midmean([]float64{10, 10, 10, 10, 10, 10, 10, 1000}); got != 10 {
		t.Errorf("midmean with an outlier = %v, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", got)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 30},
	}
	want := map[int32]int64{1: 100 - 40 - 10, 2: 20, 3: 25, 4: 30, 5: 5}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	// One traced request: txn 0..100 with submit 0..10 and ack_wait 90..100.
	tr := &tracer{}
	req := tr.reqSpans([]reqTrace{{t0: 0, t1: 10, t2: 90, t3: 100}}, 0)
	if self := selfTimes(req); self[req[0].ID] != 80 {
		t.Errorf("txn self time = %d, want 80 in flight", self[req[0].ID])
	}
}

// The smoke run: every workload, timed and traced with every layer
// probe, at a hundredth of the scale, through the same entry point the
// driver uses; each metric BENCHMARK.json names must come out exactly
// once, with its unit.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var con struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &con); err != nil {
		t.Fatal(err)
	}
	if len(con.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(con.Workloads), len(workloads))
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	start := time.Now()
	for i, w := range con.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		for trace, want := range [][]struct{ Name, Unit string }{con.EndToEnd, con.PerLayer} {
			cmd := exec.Command(bin, "--workload", w.Name, "--seed", "3", "--seconds", "0.4", "--trace", string(rune('0'+trace)), "-scale", "0.01", "-out", dir)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.Name, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rl resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v", w.Name, trace, err)
			}
			if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, rl.Correct, rl.Attempted, rl.Failed)
			}
			if len(rl.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics in the result, BENCHMARK.json names %d", w.Name, trace, len(rl.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rl.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace %d: metric %s = %+v (present %v), want a number in %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				printed := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s trace %d: metric %s printed %d times with its unit, want once", w.Name, trace, m.Name, printed)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(dir, "trace_"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				if !strings.Contains(string(out), "unattributed") {
					t.Errorf("%s: the layer budget has no unattributed row", w.Name)
				}
			}
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke took %v", d)
	}
}
