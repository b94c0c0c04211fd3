package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Ops so far.")
	g := r.NewGauge("test_conns", "Open conns.")
	c.Add(41)
	c.Inc()
	g.Set(7)
	g.Inc()
	g.Inc()
	g.Dec()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total Ops so far.\n",
		"# TYPE test_ops_total counter\n",
		"test_ops_total 42\n",
		"# TYPE test_conns gauge\n",
		"test_conns 8\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestVecExpositionSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_queries_total", "Per-model.", "model")
	cv.With("zeta").Add(3)
	cv.With("alpha").Add(1)
	cv.With(`we"ird\nm`).Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	ia := strings.Index(out, `test_queries_total{model="alpha"} 1`)
	iz := strings.Index(out, `test_queries_total{model="zeta"} 3`)
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("children missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, `model="we\"ird\\nm"`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestGaugeVecDeleteDropsChild(t *testing.T) {
	r := NewRegistry()
	gv := r.NewGaugeVec("test_active_version", "Per-model.", "model")
	gv.With("alpha").Set(3)
	gv.With("zeta").Set(1)
	gv.Delete("alpha")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "alpha") || !strings.Contains(b.String(), `test_active_version{model="zeta"} 1`) {
		t.Errorf("deleted child still exposed, or survivor lost:\n%s", b.String())
	}
}

func TestVecMultiLabelIdentity(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_events_total", "By key pair.", "a", "b")
	cv.With("x", "y").Inc()
	cv.With("x", "y").Inc()
	cv.With("y", "x").Inc()
	if got := cv.With("x", "y").Value(); got != 2 {
		t.Errorf("With(x,y) = %d, want 2", got)
	}
	if got := cv.With("y", "x").Value(); got != 1 {
		t.Errorf("With(y,x) = %d, want 1", got)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-9 {
		t.Fatalf("Sum = %g, want 5.605", h.Sum())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		"test_latency_seconds_sum 5.605",
		"test_latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramVecBuckets(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("test_op_seconds", "Per-op latency.", []float64{1, 2}, "op")
	hv.With("a").Observe(1.5)
	hv.With("a").Observe(0.5)
	hv.With("b").Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_op_seconds_bucket{op="a",le="1"} 1`,
		`test_op_seconds_bucket{op="a",le="2"} 2`,
		`test_op_seconds_bucket{op="a",le="+Inf"} 2`,
		`test_op_seconds_count{op="a"} 2`,
		`test_op_seconds_bucket{op="b",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.5, 2, 3)
	want := []float64{0.5, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	if len(DefaultLatencyBuckets) != 18 || DefaultLatencyBuckets[0] != 50e-6 {
		t.Fatalf("DefaultLatencyBuckets changed shape: %v", DefaultLatencyBuckets)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup_total", "y")
}

// TestConcurrentWriters hammers every metric type from many goroutines
// while scrapes run, then checks exact totals — the -race companion to
// the lock-free claims.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cw_total", "x")
	g := r.NewGauge("cw_gauge", "x")
	h := r.NewHistogram("cw_seconds", "x", []float64{0.5, 1})
	cv := r.NewCounterVec("cw_by_model_total", "x", "model")
	hv := r.NewHistogramVec("cw_op_seconds", "x", []float64{1}, "op")

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := string(rune('a' + w%2))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(0.25)
				cv.With(model).Inc()
				hv.With("classify").Observe(2)
			}
		}(w)
	}
	// Concurrent scrapes must not disturb the writers.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	total := uint64(workers * perWorker)
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if uint64(g.Value()) != total {
		t.Errorf("gauge = %d, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	if math.Abs(h.Sum()-0.25*float64(total)) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), 0.25*float64(total))
	}
	if got := cv.With("a").Value() + cv.With("b").Value(); got != total {
		t.Errorf("counter vec total = %d, want %d", got, total)
	}
	if hv.With("classify").Count() != total {
		t.Errorf("histogram vec count = %d, want %d", hv.With("classify").Count(), total)
	}
}

// TestHotPathZeroAlloc asserts the contract the serving layers rely on:
// observing existing metrics — including a single-label Vec child lookup —
// allocates nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("za_total", "x")
	g := r.NewGauge("za_gauge", "x")
	h := r.NewHistogram("za_seconds", "x", nil)
	cv := r.NewCounterVec("za_by_model_total", "x", "model")
	hv := r.NewHistogramVec("za_op_seconds", "x", nil, "op")
	cv.With("default").Inc() // create children outside the measured loop
	hv.With("classify").Observe(0.001)

	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(5)
		g.Dec()
		h.Observe(0.00017)
		h.ObserveSince(time.Now())
		cv.With("default").Inc()
		hv.With("classify").Observe(0.002)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkHistogramObserve is the gated hot-path figure: one latency
// observation including the Vec child lookup the server does per frame.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("bench_seconds", "x", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

// BenchmarkVecObserve measures the per-frame instrumentation pattern:
// resolve a single-label child and observe on it.
func BenchmarkVecObserve(b *testing.B) {
	r := NewRegistry()
	hv := r.NewHistogramVec("bench_op_seconds", "x", nil, "op")
	cv := r.NewCounterVec("bench_ops_total", "x", "op")
	hv.With("classify").Observe(1)
	cv.With("classify").Inc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv.With("classify").Inc()
		hv.With("classify").Observe(0.00042)
	}
}

// BenchmarkHistogramObserveParallel shows contention behavior: many
// goroutines on one histogram, the worst case for the sum CAS loop.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("bench_par_seconds", "x", nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.00042)
		}
	})
}
