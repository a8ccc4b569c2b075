// Command perfbench is refserve's benchmark. It starts refserve as a
// child process with its default flags (deployment settings aside) and
// drives it over loopback HTTP with a closed loop of one client on one
// keep-alive connection, checking every answer against an oracle
// computed in-process with the sat strategy before timing starts.
//
//	bash perfbench/run.sh --workload warm-gcov --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports per-layer
// metrics from a short HTTP run (response meta) plus an in-process replay
// of the same generated inputs with spans recorded by this program (see
// traced.go). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Run files (server log,
// data dirs, spans, environment) go to .bench_build/perfbench/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed          int64
	seconds       float64
	trace         bool
	bin           string
	outRoot       string
	setups        int  // boots per run; setup_s is their median
	restarts      int  // recovery_s samples: restarts on the data dir, or boots
	corruptOracle bool // self-test: the run must report failures
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: warm-gcov, novel-gcov, warm-range, read-write or all")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 15, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		bin     = flag.String("refserve", filepath.Join(".bench_build", "bin", "refserve"), "refserve binary")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run files")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, outRoot: *out,
		setups: 3, restarts: 5}
	if *trace != 0 && *trace != 1 {
		fatal(errors.New("--trace must be 0 or 1"))
	}
	if _, err := os.Stat(cfg.bin); err != nil {
		fatal(fmt.Errorf("refserve binary: %w (build it with perfbench/run.sh)", err))
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fatal(fmt.Errorf("unknown --workload %q", *name))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	defer stopAll()

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		res, err := runWorkload(ctx, w, cfg)
		if err != nil {
			stopAll()
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Correct
		for k, m := range res.Metrics {
			if len(ws) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload runs one workload and prints its report.
func runWorkload(ctx context.Context, w workload, cfg config) (result, error) {
	mode := map[bool]string{false: "e2e", true: "trace"}[cfg.trace]
	outDir := filepath.Join(cfg.outRoot, w.name+"-"+mode)
	if err := os.RemoveAll(outDir); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	fmt.Printf("workload %s (seed %d, %s): %s\n", w.name, cfg.seed, mode, w.why)

	start := time.Now()
	orc, err := buildOracle(oracleTexts(w))
	if err != nil {
		return result{}, err
	}
	debug.FreeOSMemory() // the oracle's graph is garbage now; drop it before timing
	fmt.Printf("oracle: %d answers in %.1fs\n", len(orc), time.Since(start).Seconds())

	if cfg.corruptOracle {
		k := firstKey(w, cfg.seed, orc)
		orc[k] = orc[k].plus(rowHash{Sum: 1})
	}
	opts := httpOpts{bin: cfg.bin, outDir: outDir, seconds: cfg.seconds, setups: cfg.setups, restarts: cfg.restarts}
	if cfg.trace {
		// The HTTP share of a traced run only feeds the response-meta
		// metrics; one boot, one restart.
		opts.seconds, opts.setups, opts.restarts = cfg.seconds/3, 1, 1
	}
	run, err := runHTTP(ctx, w, cfg.seed, orc, opts)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: run.attempted, Failed: run.failed, Metrics: map[string]metric{}}
	report := map[string]metric{}
	if cfg.trace {
		tr, err := runTraced(ctx, w, cfg.seed, orc, cfg.seconds*2/3, outDir)
		if err != nil {
			return result{}, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		run.failures = append(run.failures, tr.failures...)
		res.Metrics = layerMetrics(run, tr)
		report = res.Metrics
	} else {
		res.Metrics = endToEnd(run)
		for k, m := range res.Metrics {
			report[k] = m
		}
		for k, m := range writeReport(w, run) {
			report[k] = m
		}
	}
	res.Correct = res.Failed == 0
	for _, f := range run.failures {
		fmt.Println("failure:", f)
	}
	env := environment(run.flags, outDir, w, cfg, opts)
	envLine, _ := json.Marshal(env) // strings and numbers always marshal
	fmt.Println("env", string(envLine))
	names := make([]string, 0, len(report))
	for k := range report {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %s %s %.6g %s\n", w.name, k, report[k].Value, report[k].Unit)
	}
	fmt.Printf("ops %s attempted %d failed %d\n", w.name, res.Attempted, res.Failed)
	return res, writeJSONFile(filepath.Join(outDir, "report.json"), map[string]any{
		"workload": w.name, "why": w.why, "env": env, "metrics": report,
		"attempted": res.Attempted, "failed": res.Failed, "failures": run.failures,
		"reads": map[string]any{"name": run.queryOf, "ms": run.queryMs},
	})
}

// firstKey is the oracle key of a request every run of the workload sends.
func firstKey(w workload, seed int64, orc oracle) string {
	switch w.name {
	case "novel-gcov":
		return newNovelGen(seed).next().key
	case "read-write":
		return rywText
	default:
		return warmPass(seed, orc)[0].key
	}
}

// endToEnd derives the end-to-end metrics of a --trace 0 run.
func endToEnd(run *httpRun) map[string]metric {
	return map[string]metric{
		"setup_s":        {median(run.setupS), "s"},
		"query_p50_ms":   {quantile(run.queryMs, 0.50), "ms"},
		"query_p95_ms":   {quantile(run.queryMs, 0.95), "ms"},
		"throughput_rps": {median(run.blockRPS), "1/s"},
		"recovery_s":     {median(run.recoveryS), "s"},
		"peak_rss_mb":    {run.peakRSSMB, "MiB"},
	}
}

// writeReport is what only read-write's traffic produces; it is printed
// and kept in report.json but is not part of the result line, which
// carries the metrics every workload reports.
func writeReport(w workload, run *httpRun) map[string]metric {
	m := map[string]metric{
		"query_samples": {float64(len(run.queryMs)), "count"},
	}
	if w.writes {
		m["update_p50_ms"] = metric{quantile(run.updateMs, 0.50), "ms"}
		m["update_p95_ms"] = metric{quantile(run.updateMs, 0.95), "ms"}
		m["update_samples"] = metric{float64(len(run.updateMs)), "count"}
		m["checkpoint_p50_ms"] = metric{median(run.ckptMs), "ms"}
	}
	return m
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
