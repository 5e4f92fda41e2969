package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-tests hold the benchmark to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny runs a workload with the shortest window: the passes the simulated
// metrics are priced from, and no more.
func tiny(t *testing.T, workload, seed, trace string) result {
	t.Helper()
	return runFor(t, workload, seed, "0.2", trace)
}

// runFor runs a workload and returns its result, which must be correct and
// free of failures.
func runFor(t *testing.T, workload, seed, seconds, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line is not the result: %v", args, err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, out.String())
	}
	return r
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and
// traced, and checks the metric names and units against BENCHMARK.json.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for trace, want := range map[string][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{"0": s.EndToEnd, "1": s.PerLayer} {
			r := tiny(t, name, "3", trace)
			if len(r.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json lists %d", name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s --trace %s: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s --trace %s: metric %s in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestSimulatedMetricsRepeatForASeed: simulated time is a function of the
// executed work, and is priced over a fixed number of passes, so two runs
// with one seed agree exactly on every sim_* and sim.* value, untraced and
// traced, even when one runs several passes more than the other.
func TestSimulatedMetricsRepeatForASeed(t *testing.T) {
	for _, w := range []string{"tpch-scs", "tpch-hos"} {
		for _, trace := range []string{"0", "1"} {
			// The traced run gives the priced loop half the window.
			long := map[string]string{"0": "12", "1": "24"}[trace]
			a, b := tiny(t, w, "11", trace), runFor(t, w, "11", long, trace)
			checked := 0
			for name, m := range a.Metrics {
				if !strings.HasPrefix(name, "sim") {
					continue
				}
				checked++
				if b.Metrics[name] != m {
					t.Errorf("%s --trace %s: %s was %v at 0.2 s, then %v at %s s", w, trace, name, m.Value, b.Metrics[name].Value, long)
				}
			}
			if checked == 0 {
				t.Errorf("%s --trace %s: no simulated metrics", w, trace)
			}
		}
	}
}
