package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric, its unit, and — for per-layer
// metrics — the end-to-end metric it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the serving stack sees, measured with
// tracing off. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"qps", "1/s", ""},
	{"p50_ms", "ms", ""},
	{"p95_ms", "ms", ""},
	{"success_share", "share", ""},
	{"cpu_us_per_req", "us", ""},
	{"alloc_bytes_per_req", "bytes", ""},
	{"wire_bytes_per_req", "bytes", ""},
	{"peak_rss_mb", "MiB", ""},
	{"served_accuracy", "share", ""},
	{"upload_ms", "ms", ""},
}

// perLayer are the traced run's metrics, one group per layer, each with
// the end-to-end metric it should move.
var perLayer = []metricDef{
	{"setup.train_s", "s", "setup_s"},
	{"setup.connect_ms", "ms", "setup_s"},
	{"edge.prepare_us", "us", "p50_ms, cpu_us_per_req"},
	{"client.call_us", "us", "p50_ms"},
	{"client.call_p99_us", "us", "p95_ms"},
	{"trace.client_queue_us", "us", "p50_ms"},
	{"trace.network_us", "us", "p50_ms"},
	{"trace.server_queue_us", "us", "p50_ms"},
	{"trace.server_total_us", "us", "p50_ms"},
	{"trace.server_score_us", "us", "cpu_us_per_req"},
	{"io.reads_per_req", "count", "cpu_us_per_req, qps"},
	{"io.writes_per_req", "count", "cpu_us_per_req, qps"},
	{"io.bytes_in_per_req", "bytes", "wire_bytes_per_req"},
	{"io.bytes_out_per_req", "bytes", "wire_bytes_per_req"},
	{"pool.dials", "count", "success_share"},
	{"pool.retries", "count", "success_share"},
	{"pool.acquire_wait_us", "us", "p95_ms"},
	{"cluster.failovers", "count", "success_share"},
	{"cluster.hedges", "count", "p95_ms"},
	{"shard.gathers_per_req", "count", "p50_ms"},
	{"shard.gather_us", "us", "p50_ms, p95_ms"},
	{"shard.partial_retries", "count", "p95_ms"},
	{"shard.gather_errors", "count", "success_share"},
	{"server.queries_per_req", "count", "success_share"},
	{"server.rejections", "count", "success_share"},
	{"server.request_us", "us", "p50_ms"},
	{"manager.uploads", "count", "upload_ms"},
	{"manager.upload_loaded_ms", "ms", "upload_ms"},
	{"runtime.allocs_per_req", "count", "alloc_bytes_per_req"},
	{"runtime.gc_cycles", "count", "p95_ms"},
	{"runtime.gc_pause_ms", "ms", "p95_ms"},
	{"lat.p50_ms", "ms", "p50_ms"},
	{"lat.p95_ms", "ms", "p95_ms"},
	{"lat.p99_ms", "ms", "none (validity)"},
	{"lat.max_ms", "ms", "none (validity)"},
	{"lat.samples", "count", "none (validity)"},
	{"gen.late_p99_ms", "ms", "none (validity)"},
	{"gen.sender_waits", "count", "none (validity)"},
	{"gen.sent", "count", "none (validity)"},
	{"gen.ok", "count", "none (validity)"},
	{"gen.failed", "count", "none (validity)"},
	{"trace.overhead_share", "share", "none"},
}

// measure is one metric's value and how many samples it rests on.
type measure struct {
	value   float64
	samples int
}

type result struct {
	cfg       config
	fp        fingerprint
	setups    []time.Duration
	phases    []*phase
	values    map[string]measure
	attempted int
	failed    int
	problems  []string // anything here fails the run
	flags     []string // warnings that do not fail the run
	spansPath string
}

func (r *result) set(name string, v float64, samples int) {
	if r.values == nil {
		r.values = map[string]measure{}
	}
	r.values[name] = measure{v, samples}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// endToEndMetrics fills the untraced run's metrics from its measured
// phases, one per fleet. Throughput, latency and CPU per request are
// medians over the calm phases: those in which the hypervisor stole no
// more than stealSlack beyond the least-stolen phase's share of CPU time.
// On a shared virtual machine steal slows every layer at once, varies
// from phase to phase, and is not the program's doing. The byte counts
// are totals over all phases.
func (r *result) endToEndMetrics(phases []*phase, v verification, uploads []time.Duration) {
	least := 1.0
	for _, m := range phases {
		least = min(least, stealShare(m.before.host, m.after.host))
	}
	var (
		qps, p50, p95, cpu []float64
		sent, ok           int
		alloc, wire        float64
	)
	for _, m := range phases {
		sent, ok = sent+m.t.sent, ok+m.t.ok
		alloc += float64(m.after.mem.TotalAlloc - m.before.mem.TotalAlloc)
		wire += float64(m.after.io.in - m.before.io.in + m.after.io.out - m.before.io.out)
		if stealShare(m.before.host, m.after.host) > least+stealSlack {
			continue
		}
		qps = append(qps, float64(m.t.ok)/m.elapsed().Seconds())
		p50 = append(p50, ms(quantile(m.t.lats, 0.50)))
		p95 = append(p95, ms(quantile(m.t.lats, 0.95)))
		cpu = append(cpu, us(m.after.cpu-m.before.cpu)/float64(max(m.t.ok, 1)))
	}
	r.set("qps", medianOf(qps), len(qps))
	r.set("p50_ms", medianOf(p50), len(p50))
	r.set("p95_ms", medianOf(p95), len(p95))
	r.set("cpu_us_per_req", medianOf(cpu), len(cpu))
	r.set("setup_s", median(r.setups).Seconds(), len(r.setups))
	r.set("success_share", float64(ok)/float64(max(sent, 1)), sent)
	r.set("alloc_bytes_per_req", alloc/float64(max(ok, 1)), ok)
	r.set("wire_bytes_per_req", wire/float64(max(ok, 1)), ok)
	r.set("peak_rss_mb", peakRSSMB(), 1)
	r.set("served_accuracy", float64(v.correct)/float64(max(v.total, 1)), v.total)
	r.set("upload_ms", ms(median(uploads)), len(uploads))
}

// layerMetrics fills the traced run's metrics. Counters come from the
// untraced half m, so tracing's own traffic does not inflate them; span
// and wire-stage times come from the traced half t; latency from when
// requests were due and the generator figures from load, the open-loop
// phase where the workload has one and m otherwise.
func (r *result) layerMetrics(m, t, load *phase, sp *spanRecorder) {
	ok := float64(max(m.t.ok, 1))
	b, a := m.before.metrics, m.after.metrics
	// Each span's mean self time, reported under the span's name with
	// its unit appended.
	times := sp.layerTimes()
	seconds := func(d time.Duration) float64 { return d.Seconds() }
	for _, d := range []struct {
		span, metric string
		unit         func(time.Duration) float64
	}{
		{"setup.train", "setup.train_s", seconds},
		{"setup.connect", "setup.connect_ms", ms},
		{"edge.prepare", "edge.prepare_us", us},
		{"client.call", "client.call_us", us},
	} {
		ds := times[d.span]
		var sum time.Duration
		for _, t := range ds {
			sum += t
		}
		r.set(d.metric, d.unit(sum/time.Duration(max(len(ds), 1))), len(ds))
	}
	calls := append([]time.Duration(nil), times["client.call"]...)
	r.set("client.call_p99_us", us(quantile(calls, 0.99)), len(calls))

	wire := sp.wireFrames()
	stage := func(name string, pick func(i int) int64) {
		var sum int64
		for i := range wire {
			sum += pick(i)
		}
		r.set(name, float64(sum)/float64(max(len(wire), 1))/1e3, len(wire))
	}
	stage("trace.client_queue_us", func(i int) int64 { return wire[i].Local.QueueNs })
	stage("trace.network_us", func(i int) int64 { return wire[i].Local.NetworkNs })
	stage("trace.server_queue_us", func(i int) int64 { return wire[i].Server.QueueNs })
	stage("trace.server_total_us", func(i int) int64 { return wire[i].ServerTotalNs })
	stage("trace.server_score_us", func(i int) int64 { return wire[i].Server.ScoreNs })

	io := func(x func(ioTotals) int64) float64 { return float64(x(m.after.io)-x(m.before.io)) / ok }
	r.set("io.reads_per_req", io(func(t ioTotals) int64 { return t.reads }), m.t.ok)
	r.set("io.writes_per_req", io(func(t ioTotals) int64 { return t.writes }), m.t.ok)
	r.set("io.bytes_in_per_req", io(func(t ioTotals) int64 { return t.in }), m.t.ok)
	r.set("io.bytes_out_per_req", io(func(t ioTotals) int64 { return t.out }), m.t.ok)

	count := func(name, metric string) {
		r.set(name, delta(b, a, metric), 1)
	}
	histMeanUS := func(name, metric string) {
		n := delta(b, a, metric+"_count")
		r.set(name, delta(b, a, metric+"_sum")/max(n, 1)*1e6, int(n))
	}
	count("pool.dials", "privehd_pool_dials_total")
	count("pool.retries", "privehd_pool_retries_total")
	histMeanUS("pool.acquire_wait_us", "privehd_pool_acquire_wait_seconds")
	count("cluster.failovers", "privehd_cluster_failovers_total")
	count("cluster.hedges", "privehd_cluster_hedges_total")
	gathers := delta(b, a, "privehd_shard_gathers_total")
	r.set("shard.gathers_per_req", gathers/ok, int(gathers))
	histMeanUS("shard.gather_us", "privehd_shard_gather_seconds")
	count("shard.partial_retries", "privehd_shard_partial_retries_total")
	count("shard.gather_errors", "privehd_shard_gather_errors_total")
	queries := delta(b, a, "privehd_server_queries_total")
	r.set("server.queries_per_req", queries/ok, int(queries))
	count("server.rejections", "privehd_server_rejections_total")
	histMeanUS("server.request_us", "privehd_server_request_seconds")

	r.set("manager.uploads", float64(len(m.uploads)), len(m.uploads))
	r.set("manager.upload_loaded_ms", ms(median(m.uploads)), len(m.uploads))

	r.set("runtime.allocs_per_req", float64(m.after.mem.Mallocs-m.before.mem.Mallocs)/ok, m.t.ok)
	r.set("runtime.gc_cycles", float64(m.after.mem.NumGC-m.before.mem.NumGC), 1)
	r.set("runtime.gc_pause_ms", float64(m.after.mem.PauseTotalNs-m.before.mem.PauseTotalNs)/1e6, int(m.after.mem.NumGC-m.before.mem.NumGC))

	// Latency from when each request was due, queueing included.
	due := load.t.fromDue
	for _, q := range []struct {
		name string
		q    float64
	}{{"lat.p50_ms", 0.50}, {"lat.p95_ms", 0.95}, {"lat.p99_ms", 0.99}, {"lat.max_ms", 1}} {
		r.set(q.name, ms(quantile(due, q.q)), len(due))
	}
	r.set("lat.samples", float64(len(due)), len(due))
	r.set("gen.late_p99_ms", ms(quantile(load.t.late, 0.99)), len(load.t.late))
	r.set("gen.sender_waits", float64(load.t.waits), 1)
	r.set("gen.sent", float64(load.t.sent), 1)
	r.set("gen.ok", float64(load.t.ok), 1)
	r.set("gen.failed", float64(load.t.failedTotal()+load.t.wrong), 1)

	// Tracing cost as the share of per-request CPU the traced half spends
	// beyond the untraced half. Under a closed loop that saturates the CPU
	// this equals 1 − traced qps / untraced qps, and it stays a cost per
	// request where the loop leaves CPU idle.
	cpuPer := func(p *phase) float64 { return us(p.after.cpu-p.before.cpu) / float64(max(p.t.ok, 1)) }
	r.set("trace.overhead_share", 1-cpuPer(m)/cpuPer(t), t.t.ok)
}

// driverLine is the result as the last line of standard output.
func (r *result) driverLine() map[string]any {
	defs := endToEnd
	if r.cfg.traced {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			continue
		}
		metrics[d.name] = map[string]any{"value": v.value, "unit": d.unit}
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

// print writes the human-readable report: fingerprint, per-phase tallies,
// and the metric table.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", r.cfg.workload.name, r.cfg.seed, r.cfg.window.Seconds(), r.cfg.traced)
	fmt.Fprintf(w, "fingerprint cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s\n",
		r.fp.CPU, r.fp.NProc, r.fp.GOMAXPROCS, r.fp.Go, r.fp.Commit, r.fp.Tree)
	for _, p := range r.phases {
		fmt.Fprintf(w, "phase %-8s %7.3fs sent %d ok %d wrong %d failed %d (deadline %d, transport %d, other %d) uploads %d host-steal %.1f%%\n",
			p.name, p.elapsed().Seconds(), p.t.sent, p.t.ok, p.t.wrong, p.t.failedTotal(),
			p.t.failed["deadline"], p.t.failed["transport"], p.t.failed["other"], len(p.uploads),
			100*stealShare(p.before.host, p.after.host))
	}
	defs := endToEnd
	if r.cfg.traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "%-24s %14s %-6s %9s  %s\n", "metric", "value", "unit", "samples", "should move")
	for _, d := range defs {
		v := r.values[d.name]
		fmt.Fprintf(w, "%-24s %14.4f %-6s %9d  %s\n", d.name, v.value, d.unit, v.samples, d.moves)
	}
	for _, f := range r.flags {
		fmt.Fprintln(w, "FLAG:", f)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	if r.spansPath != "" {
		fmt.Fprintln(w, "spans written to", r.spansPath)
	}
}

// fingerprint identifies the machine and the code a result came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the git commit when the checkout has its .git; Tree is a
	// SHA-256 over the source files, which identifies the code either way.
	Commit string `json:"commit"`
	Tree   string `json:"tree"`
}

func takeFingerprint(root string) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(root),
		Tree:       treeHash(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// treeHash hashes every Go source and module file under root, in path
// order, skipping build output and VCS metadata.
func treeHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
