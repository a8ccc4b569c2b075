package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
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

// smokeConfig builds refserve and returns a reduced-size configuration:
// one-second runs, one boot, one restart.
func smokeConfig(t *testing.T) config {
	t.Helper()
	if testing.Short() {
		t.Skip("builds refserve and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "refserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/refserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build refserve: %v\n%s", err, out)
	}
	return config{seed: 7, seconds: 1, bin: bin, outRoot: filepath.Join(dir, "out"), setups: 1, restarts: 1}
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricEmitted runs every workload in both modes and checks the
// result line carries exactly the benchmark's metrics, each with its
// unit, and no answer mismatch.
func TestEveryMetricEmitted(t *testing.T) {
	cfg := smokeConfig(t)
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not defined", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptOracleFails checks that answer checking bites: a corrupted
// oracle hash must turn into reported failures, over HTTP and in the
// traced replay.
func TestCorruptOracleFails(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.corruptOracle = true
	for _, name := range []string{"warm-gcov", "read-write"} {
		w, _ := findWorkload(name)
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s (trace %v): corrupted oracle gave correct %v with %d failures", name, traced, res.Correct, res.Failed)
			}
		}
	}
}
