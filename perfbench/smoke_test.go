package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process:
// the parent re-executes its own binary with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of ../BENCHMARK.json the smoke run checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload on tiny inputs, untraced and traced, and
// checks that each emits every metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
				o := options{workload: w.name, seed: 1, seconds: 1, trace: trace, tiny: true, root: t.TempDir()}
				res, err := runParent(o, w)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if res.Attempted < 1 || res.Failed > res.Attempted {
					t.Errorf("trace %d: attempted %d, failed %d", trace, res.Attempted, res.Failed)
				}
				if !res.Correct {
					t.Errorf("trace %d: %d of %d operations failed", trace, res.Failed, res.Attempted)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace %d: metric %s missing", trace, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("trace %d: metric %s in %s, BENCHMARK.json says %s", trace, m.Name, got.Unit, m.Unit)
					}
				}
			}
		})
	}
}
