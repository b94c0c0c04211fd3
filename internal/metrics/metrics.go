// Package metrics is a dependency-free metrics core for the serving
// stack: atomic counters, gauges and fixed-bucket histograms, grouped in a
// Registry that exposes them in the Prometheus text format (version
// 0.0.4), so any standard scraper can read a privehd deployment without
// this module importing a client library.
//
// The design rule is that the serving hot path must not pay for being
// observed: every write operation — Counter.Add, Gauge.Set,
// Histogram.Observe, and a Vec child lookup with one label value — is
// lock-free and allocation-free (asserted by tests with
// testing.AllocsPerRun and gated benchmarks). All the formatting cost
// lives on the scrape path, which runs at human frequency.
//
// Metrics come in two shapes: plain (one time series) and Vec (a family of
// children keyed by label values, created on first use). Hot paths that
// observe the same child repeatedly should call With once and keep the
// returned pointer; With itself is still cheap enough — an RWMutex read
// lock and one map read — for per-request use with a single label.
//
// A process-wide Default registry is what the serving layers record into
// and what privehd.ServeMetrics and the admin plane's GET /metrics expose;
// independent Registry instances exist for tests.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry the serving layers record into and
// the one MetricsHandler/ServeMetrics expose.
var Default = NewRegistry()

// DefaultLatencyBuckets covers serving latencies from 50µs to ~6.5s in
// ×2 steps — wide enough for a loopback integer-domain classify (tens of
// microseconds) and a cross-region round trip on the same histogram.
var DefaultLatencyBuckets = ExpBuckets(50e-6, 2, 18)

// ExpBuckets returns count upper bounds starting at start and growing by
// factor: the usual shape for latency histograms, where resolution should
// be relative, not absolute.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// family is one registered metric: a name, metadata, and the ability to
// write its current time series. The om flag selects the OpenMetrics
// dialect (exemplars on histogram buckets, counter families named without
// the _total suffix) over classic text format 0.0.4.
type family interface {
	name() string
	write(w io.Writer, om bool) error
}

// Registry holds registered metrics and exposes them in the Prometheus
// text format. Registration (New* methods) is expected at setup time;
// WritePrometheus and Handler may run concurrently with any number of writers.
type Registry struct {
	mu       sync.Mutex
	families []family
	byName   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]bool{}}
}

// register adds a family, panicking on duplicate names — metrics are
// package-level wiring, and two owners for one name is a programming
// error no caller could handle at runtime.
func (r *Registry) register(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[f.name()] {
		panic(fmt.Sprintf("metrics: %q registered twice", f.name()))
	}
	r.byName[f.name()] = true
	r.families = append(r.families, f)
}

// WritePrometheus writes every registered metric in the Prometheus text format, in
// registration order (children sorted by label values). Values are read
// with atomic loads while writers keep running; a scrape is a statistical
// snapshot, not a transaction.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeAll(w, false)
}

// WriteOpenMetrics writes the registry in the OpenMetrics text format:
// same series, plus exemplars on histogram buckets that have them, and the
// mandatory "# EOF" terminator. Scrapers that want exemplars (Prometheus
// with exemplar storage enabled) negotiate this via the Accept header.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeAll(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeAll(w io.Writer, om bool) error {
	r.mu.Lock()
	fams := append([]family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w, om); err != nil {
			return err
		}
	}
	return nil
}

// openMetricsContentType is what an OpenMetrics-negotiated scrape gets.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target. Clients whose Accept header asks for
// application/openmetrics-text get the OpenMetrics dialect (with
// exemplars); everyone else gets classic text format 0.0.4.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", openMetricsContentType)
			r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// desc is a family's metadata.
type desc struct {
	fqName string
	help   string
	typ    string
	labels []string
}

// header writes the # HELP / # TYPE preamble. In OpenMetrics, a counter
// family is declared under its name without the _total suffix while the
// sample line keeps it — classic format declares and samples the same
// name.
func (d *desc) header(w io.Writer, om bool) error {
	name := d.fqName
	if om && d.typ == "counter" {
		name = strings.TrimSuffix(name, "_total")
	}
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		name, escapeHelp(d.help), name, d.typ)
	return err
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// labelString renders {k="v",...} for the given names and values; extra
// appends one more pair (the histogram "le" label). Empty names render
// nothing (plain metrics).
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing counter. The zero value is ready
// to use once registered; all methods are lock-free.
type Counter struct {
	v atomic.Uint64
	d *desc
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{d: &desc{fqName: name, help: help, typ: "counter"}}
	r.register(counterFamily{c})
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

type counterFamily struct{ c *Counter }

func (f counterFamily) name() string { return f.c.d.fqName }
func (f counterFamily) write(w io.Writer, om bool) error {
	if err := f.c.d.header(w, om); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", f.c.d.fqName, f.c.Value())
	return err
}

// Gauge is an integer-valued gauge (connection counts, versions, health
// bits); all methods are lock-free.
type Gauge struct {
	v atomic.Int64
	d *desc
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{d: &desc{fqName: name, help: help, typ: "gauge"}}
	r.register(gaugeFamily{g})
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type gaugeFamily struct{ g *Gauge }

func (f gaugeFamily) name() string { return f.g.d.fqName }
func (f gaugeFamily) write(w io.Writer, om bool) error {
	if err := f.g.d.header(w, om); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", f.g.d.fqName, f.g.Value())
	return err
}

// Histogram is a fixed-bucket histogram. Observe is lock-free and
// allocation-free: one atomic add on the matching bucket, one on the
// count, and a CAS loop folding the value into the float64 sum. Buckets
// are chosen at construction and never change.
//
// Each bucket additionally holds one exemplar slot — the most recent
// traced observation that landed there — exposed in the OpenMetrics
// dialect. Plain Observe never touches the slots, so exemplar support
// costs the untraced hot path nothing.
type Histogram struct {
	bounds    []float64 // upper bounds, ascending; +Inf implied at the end
	counts    []atomic.Uint64
	exemplars []atomic.Pointer[exemplar]
	count     atomic.Uint64
	sumBits   atomic.Uint64
}

// exemplar is one traced observation pinned to a bucket.
type exemplar struct {
	trace string // trace ID in canonical hex form
	value float64
}

// newHistogram builds the bucket storage for the given bounds.
func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: histogram buckets must be strictly ascending")
		}
	}
	bounds := append([]float64(nil), buckets...)
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (nil = DefaultLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	f := &histogramFamily{d: &desc{fqName: name, help: help, typ: "histogram"}, h: h}
	r.register(f)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// bucket returns the index of the bucket v falls into.
func (h *Histogram) bucket(v float64) int {
	// Linear scan: bucket counts are small (≤ ~20) and latencies cluster in
	// the low buckets, so this beats a branchy binary search in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// ObserveExemplar records one value and pins it as the bucket's exemplar
// under the given trace ID (canonical hex form). Unlike Observe it
// allocates (one exemplar), so callers use it only for sampled requests.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.bucket(v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.exemplars[i].Store(&exemplar{trace: traceID, value: v})
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0 — the one-liner for
// latency spans.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// writeSeries writes one histogram's _bucket/_sum/_count series under the
// given label set. In OpenMetrics mode, buckets carry their exemplar
// (" # {trace_id=\"...\"} value") when one has been recorded.
func (h *Histogram) writeSeries(w io.Writer, fqName string, names, values []string, om bool) error {
	cum := uint64(0)
	for i := 0; i <= len(h.bounds); i++ {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		suffix := ""
		if om {
			if ex := h.exemplars[i].Load(); ex != nil {
				suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabel(ex.trace), formatFloat(ex.value))
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			fqName, labelString(names, values, "le", le), cum, suffix); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		fqName, labelString(names, values, "", ""), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		fqName, labelString(names, values, "", ""), h.Count())
	return err
}

type histogramFamily struct {
	d *desc
	h *Histogram
}

func (f *histogramFamily) name() string { return f.d.fqName }
func (f *histogramFamily) write(w io.Writer, om bool) error {
	if err := f.d.header(w, om); err != nil {
		return err
	}
	return f.h.writeSeries(w, f.d.fqName, nil, nil, om)
}

// vec is the shared child table behind CounterVec/GaugeVec/HistogramVec:
// children are created on first use and found by a key derived from the
// label values (the value itself for one label, a joined string for
// more, so the common single-label hot path never concatenates).
type vec[T any] struct {
	d        *desc
	mu       sync.RWMutex
	children map[string]*vecChild[T]
}

type vecChild[T any] struct {
	values []string
	v      T
}

func newVec[T any](name, help, typ string, labels []string) *vec[T] {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: vec %q needs at least one label", name))
	}
	return &vec[T]{
		d:        &desc{fqName: name, help: help, typ: typ, labels: labels},
		children: map[string]*vecChild[T]{},
	}
}

// key derives the child map key; allocation-free for a single label.
func (v *vec[T]) key(lvs []string) string {
	if len(lvs) == 1 {
		return lvs[0]
	}
	return strings.Join(lvs, "\x1f")
}

// lookup is the hot path: one read lock, one map read, no allocation.
func (v *vec[T]) lookup(lvs []string) (*vecChild[T], bool) {
	k := v.key(lvs)
	v.mu.RLock()
	ch, ok := v.children[k]
	v.mu.RUnlock()
	return ch, ok
}

// create adds the child for lvs (first use), copying the values so the
// caller's (possibly stack-allocated) slice never escapes into the table.
func (v *vec[T]) create(lvs []string, mk func() T) *vecChild[T] {
	values := make([]string, len(lvs))
	copy(values, lvs)
	k := v.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch, ok := v.children[k]; ok {
		return ch
	}
	ch := &vecChild[T]{values: values, v: mk()}
	v.children[k] = ch
	return ch
}

// delete removes the child for lvs, so deregistered models don't leak
// time series forever.
func (v *vec[T]) delete(lvs []string) {
	k := v.key(lvs)
	v.mu.Lock()
	delete(v.children, k)
	v.mu.Unlock()
}

// sorted returns the children ordered by label values for stable output.
func (v *vec[T]) sorted() []*vecChild[T] {
	v.mu.RLock()
	out := make([]*vecChild[T], 0, len(v.children))
	for _, ch := range v.children {
		out = append(out, ch)
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func (v *vec[T]) checkArity(lvs []string) {
	if len(lvs) != len(v.d.labels) {
		panic(fmt.Sprintf("metrics: %q expects %d label values, got %d",
			v.d.fqName, len(v.d.labels), len(lvs)))
	}
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct{ vec *vec[*Counter] }

// NewCounterVec registers and returns a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{vec: newVec[*Counter](name, help, "counter", labels)}
	r.register(cv)
	return cv
}

// With returns the child counter for the given label values, creating it
// on first use. Existing children are found without allocating; hot paths
// observing one child repeatedly should still cache the result.
func (cv *CounterVec) With(lvs ...string) *Counter {
	cv.vec.checkArity(lvs)
	if ch, ok := cv.vec.lookup(lvs); ok {
		return ch.v
	}
	return cv.vec.create(lvs, func() *Counter { return &Counter{} }).v
}

func (cv *CounterVec) name() string { return cv.vec.d.fqName }
func (cv *CounterVec) write(w io.Writer, om bool) error {
	d := cv.vec.d
	if err := d.header(w, om); err != nil {
		return err
	}
	for _, ch := range cv.vec.sorted() {
		if _, err := fmt.Fprintf(w, "%s%s %d\n",
			d.fqName, labelString(d.labels, ch.values, "", ""), ch.v.Value()); err != nil {
			return err
		}
	}
	return nil
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ vec *vec[*Gauge] }

// NewGaugeVec registers and returns a labelled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	gv := &GaugeVec{vec: newVec[*Gauge](name, help, "gauge", labels)}
	r.register(gv)
	return gv
}

// With returns the child gauge for the given label values, creating it on
// first use.
func (gv *GaugeVec) With(lvs ...string) *Gauge {
	gv.vec.checkArity(lvs)
	if ch, ok := gv.vec.lookup(lvs); ok {
		return ch.v
	}
	return gv.vec.create(lvs, func() *Gauge { return &Gauge{} }).v
}

// Delete drops the child for the given label values.
func (gv *GaugeVec) Delete(lvs ...string) { gv.vec.delete(lvs) }

func (gv *GaugeVec) name() string { return gv.vec.d.fqName }
func (gv *GaugeVec) write(w io.Writer, om bool) error {
	d := gv.vec.d
	if err := d.header(w, om); err != nil {
		return err
	}
	for _, ch := range gv.vec.sorted() {
		if _, err := fmt.Fprintf(w, "%s%s %d\n",
			d.fqName, labelString(d.labels, ch.values, "", ""), ch.v.Value()); err != nil {
			return err
		}
	}
	return nil
}

// HistogramVec is a family of histograms keyed by label values, all
// sharing one bucket layout.
type HistogramVec struct {
	vec     *vec[*Histogram]
	buckets []float64
}

// NewHistogramVec registers and returns a labelled histogram family with
// the given bucket upper bounds (nil = DefaultLatencyBuckets).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	hv := &HistogramVec{
		vec:     newVec[*Histogram](name, help, "histogram", labels),
		buckets: append([]float64(nil), buckets...),
	}
	r.register(hv)
	return hv
}

// With returns the child histogram for the given label values, creating
// it on first use.
func (hv *HistogramVec) With(lvs ...string) *Histogram {
	hv.vec.checkArity(lvs)
	if ch, ok := hv.vec.lookup(lvs); ok {
		return ch.v
	}
	return hv.vec.create(lvs, func() *Histogram { return newHistogram(hv.buckets) }).v
}

func (hv *HistogramVec) name() string { return hv.vec.d.fqName }
func (hv *HistogramVec) write(w io.Writer, om bool) error {
	d := hv.vec.d
	if err := d.header(w, om); err != nil {
		return err
	}
	for _, ch := range hv.vec.sorted() {
		if err := ch.v.writeSeries(w, d.fqName, d.labels, ch.values, om); err != nil {
			return err
		}
	}
	return nil
}
