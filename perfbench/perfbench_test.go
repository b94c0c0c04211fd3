package main

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestIdleGeneratorIsNotFlagged runs first, before the fleet tests leave
// a large heap behind for the collector.
func TestIdleGeneratorIsNotFlagged(t *testing.T) {
	fast := func(int) (bool, error) { return false, nil }
	if tl := openLoop(context.Background(), 1000, openSenders, 500*time.Millisecond, fast); generatorBehind(tl) {
		t.Errorf("idle generator flagged: %d sender waits", tl.waits)
	}
}

// smallRun runs a workload on the small split for a short window.
func smallRun(t *testing.T, name string, traced bool, wrap func(predictor) predictor) *result {
	t.Helper()
	w := workloads[name]
	w.small = true
	cfg := config{workload: w, seed: 3, window: 300 * time.Millisecond, traced: traced, root: t.TempDir(), wrap: wrap}
	res, err := run(context.Background(), cfg, &strings.Builder{})
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return res
}

func TestCleanRunsPass(t *testing.T) {
	for _, name := range []string{"serve-cluster", "serve-sharded", "edge-private"} {
		for _, traced := range []bool{false, true} {
			res := smallRun(t, name, traced, nil)
			if !res.correct() {
				t.Errorf("%s traced=%v: problems %v", name, traced, res.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line := res.driverLine()
			metrics := line["metrics"].(map[string]any)
			for _, d := range defs {
				if _, ok := metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.values[d.name].value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.values[d.name].value)
					}
				}
			}
			if traced {
				// Tracing everything yields one wire frame per shard group
				// per traced request.
				frames := res.values["trace.server_total_us"].samples
				if want := res.phases[2].t.ok * res.cfg.workload.groups(); res.phases[2].name != "traced" || frames != want {
					t.Errorf("%s: %d traced wire frames, want %d", name, frames, want)
				}
			}
			if line["attempted"].(int) < 1 || line["failed"].(int) != 0 {
				t.Errorf("%s traced=%v: attempted %v failed %v", name, traced, line["attempted"], line["failed"])
			}
		}
	}
}

// lyingClient returns a wrong label on every fifth prediction.
type lyingClient struct {
	predictor
	n atomic.Int64
}

func (c *lyingClient) PredictPrepared(q []float64) (int, []float64, error) {
	label, scores, err := c.predictor.PredictPrepared(q)
	if c.n.Add(1)%5 == 0 {
		label++
	}
	return label, scores, err
}

func (c *lyingClient) Predict(x []float64) (int, []float64, error) {
	label, scores, err := c.predictor.Predict(x)
	if c.n.Add(1)%5 == 0 {
		label++
	}
	return label, scores, err
}

func TestWrongLabelFailsRun(t *testing.T) {
	for _, name := range []string{"serve-sharded", "edge-private"} {
		res := smallRun(t, name, false, func(p predictor) predictor { return &lyingClient{predictor: p} })
		if res.correct() {
			t.Fatalf("%s: run with wrong served labels passed", name)
		}
		if !strings.Contains(strings.Join(res.problems, "\n"), "differ from Pipeline.PredictVector") {
			t.Errorf("%s: problems %v do not name the oracle", name, res.problems)
		}
		if res.driverLine()["correct"] != false {
			t.Errorf("%s: driver line reports correct", name)
		}
	}
}

// doubleSender sends every prediction twice but reports one, so the
// servers count queries the client never tallied.
type doubleSender struct{ predictor }

func (c doubleSender) PredictPrepared(q []float64) (int, []float64, error) {
	c.predictor.PredictPrepared(q)
	return c.predictor.PredictPrepared(q)
}

func (c doubleSender) Predict(x []float64) (int, []float64, error) {
	c.predictor.Predict(x)
	return c.predictor.Predict(x)
}

func TestCounterMismatchFailsRun(t *testing.T) {
	res := smallRun(t, "serve-cluster", false, func(p predictor) predictor { return doubleSender{p} })
	if res.correct() {
		t.Fatal("run whose servers counted more queries than the client sent passed")
	}
	if !strings.Contains(strings.Join(res.problems, "\n"), "counter audit") {
		t.Errorf("problems %v do not name the counter audit", res.problems)
	}
}

func TestAuditChecksBytesAndUploads(t *testing.T) {
	snap := func(queries, read, written, pubs float64, in, out int64) snapshot {
		return snapshot{
			metrics: series{
				`privehd_server_queries_total{model="bench"}`:     queries,
				`privehd_server_read_bytes_total`:                 read,
				`privehd_server_written_bytes_total`:              written,
				`privehd_model_publications_total{model="bench"}`: pubs,
			},
			io: ioTotals{in: in, out: out},
		}
	}
	before := snap(10, 100, 200, 1, 100, 200)
	tl := &tally{sent: 5, ok: 5}
	if err := audit("ok", before, snap(20, 150, 260, 3, 150, 260), tl, 2, 2); err != nil {
		t.Errorf("consistent counters: %v", err)
	}
	for name, after := range map[string]snapshot{
		"queries":      snap(19, 150, 260, 3, 150, 260),
		"read bytes":   snap(20, 151, 260, 3, 150, 260),
		"written":      snap(20, 150, 260, 3, 150, 261),
		"publications": snap(20, 150, 260, 2, 150, 260),
	} {
		if err := audit(name, before, after, tl, 2, 2); err == nil {
			t.Errorf("%s mismatch not caught", name)
		}
	}
}

func TestLateGeneratorIsFlagged(t *testing.T) {
	slow := func(int) (bool, error) { time.Sleep(20 * time.Millisecond); return false, nil }
	tl := openLoop(context.Background(), 1000, 2, 300*time.Millisecond, slow)
	if !generatorBehind(tl) {
		t.Errorf("generator with 2 senders of 20ms work at 1000/s not flagged: %d sender waits", tl.waits)
	}
	if quantile(tl.late, 0.99) < 100*time.Millisecond {
		t.Errorf("late p99 %v, want the backlog to show", quantile(tl.late, 0.99))
	}
	if tl.sent != 300 {
		t.Errorf("open loop sent %d requests, want all 300 scheduled", tl.sent)
	}
	// Latency from when each request was due includes the generator's
	// lateness; call latency does not.
	if quantile(tl.fromDue, 0.99) < quantile(tl.late, 0.99) {
		t.Errorf("latency-from-due p99 %v below lateness p99 %v", quantile(tl.fromDue, 0.99), quantile(tl.late, 0.99))
	}
	if call := quantile(tl.lats, 0.99); call > 50*time.Millisecond {
		t.Errorf("call latency p99 %v, want about the 20ms each call takes", call)
	}
}

func TestLateRunIsFlagged(t *testing.T) {
	res := smallRun(t, "edge-private", true, func(p predictor) predictor { return stallingClient{p} })
	if !strings.Contains(strings.Join(res.flags, "\n"), "open-loop: open-loop generator fell behind") {
		t.Errorf("flags %v, want the open-loop phase's generator flagged", res.flags)
	}
}

// stallingClient takes 100 ms per prediction, far beyond what 64 senders
// can absorb at 1500 arrivals/s.
type stallingClient struct{ predictor }

func (c stallingClient) Predict(x []float64) (int, []float64, error) {
	time.Sleep(100 * time.Millisecond)
	return c.predictor.Predict(x)
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newSpanRecorder()
	r.spans = []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Name: "edge.prepare", Parent: 1, Start: 10, End: 40},
		{ID: 3, Name: "client.call", Parent: 1, Start: 40, End: 90},
		{ID: 4, Name: "open", Start: 0, End: -1},
	}
	got := r.layerTimes()
	if got["request"][0] != 20 || got["edge.prepare"][0] != 30 || got["client.call"][0] != 50 {
		t.Errorf("self times %v", got)
	}
	if _, ok := got["open"]; ok {
		t.Error("unclosed span counted")
	}
}

func TestParseExposition(t *testing.T) {
	s, err := parseExposition(`# HELP x y
# TYPE privehd_server_queries_total counter
privehd_server_queries_total{model="bench"} 12
privehd_server_queries_total{model="other"} 5
privehd_server_read_bytes_total 3.5e+03
privehd_server_request_seconds_sum{op="classify"} 0.25 # {trace_id="ab"} 0.1
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("privehd_server_queries_total", `model="bench"`); got != 12 {
		t.Errorf("bench queries = %v", got)
	}
	if got := s.sum("privehd_server_queries_total"); got != 17 {
		t.Errorf("all queries = %v", got)
	}
	if got := s.sum("privehd_server_read_bytes_total"); got != 3500 {
		t.Errorf("read bytes = %v", got)
	}
	if got := s.sum("privehd_server_request_seconds_sum"); got != 0.25 {
		t.Errorf("request seconds = %v", got)
	}
}
