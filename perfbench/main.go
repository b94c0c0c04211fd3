// Command perfbench is the end-to-end serving benchmark of the privehd
// module. It stands up one named workload in-process — training, model
// store, replica listeners and client — drives it for a fixed window, checks
// every served label against the local pipeline, cross-audits its own
// tallies against the counters /metrics exports, and prints the metrics as
// one JSON object on the last line of standard output.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload serve-cluster --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 is the separate traced run: it reports the per-layer metrics,
// prints them as a table with sample counts, and writes its spans to
// .bench_build/spans/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	// The load, the replicas and the runtime share one process with one
	// P per CPU, whatever GOMAXPROCS the environment sets.
	runtime.GOMAXPROCS(runtime.NumCPU())
	os.Exit(mainRun(os.Args[1:], os.Stdout, os.Stderr))
}

func mainRun(argv []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(argv)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, err := run(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		fmt.Fprintln(stderr, "perfbench: run FAILED:", res.problems)
		return 1
	}
	return 0
}

// runTimeout caps a whole run well inside the 180 s a run may take, so a
// hung fleet ends in an error rather than a kill.
const runTimeout = 170 * time.Second

type config struct {
	workload workload
	seed     int64
	window   time.Duration
	traced   bool
	root     string // checkout root; all output goes under root/.bench_build

	// wrap, when set, wraps the client the load loops call. The
	// benchmark's tests use it to inject the faults its checks must catch.
	wrap func(predictor) predictor
}

func parseFlags(argv []string) (config, error) {
	var (
		fs      = flag.NewFlagSet("perfbench", flag.ContinueOnError)
		cfg     config
		name    string
		seconds int
		trace   int
	)
	fs.StringVar(&name, "workload", "", "workload to run: serve-cluster, serve-sharded or edge-private")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: drives input order and the DP noise stream")
	fs.IntVar(&seconds, "seconds", 15, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "checkout root; spans and model stores go under its .bench_build/")
	if err := fs.Parse(argv); err != nil {
		return cfg, err
	}
	w, ok := workloads[name]
	if !ok {
		return cfg, fmt.Errorf("unknown --workload %q (want serve-cluster, serve-sharded or edge-private)", name)
	}
	cfg.workload = w
	if seconds < 1 || seconds > 60 {
		return cfg, errors.New("--seconds must be in 1..60")
	}
	cfg.window = time.Duration(seconds) * time.Second
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.traced = trace == 1
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return cfg, err
	}
	cfg.root = root
	return cfg, nil
}

// buildDir is where the benchmark keeps everything it writes.
func (c config) buildDir() string { return filepath.Join(c.root, ".bench_build") }
