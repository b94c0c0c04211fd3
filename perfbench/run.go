package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privehd"
)

const (
	// setupRepeats is how many fleets an untraced run sets up from nothing
	// and measures.
	setupRepeats = 3
	// warmup runs before every measured phase, on every fleet.
	warmup = time.Second
	// openSenders bounds the open-loop requests in flight. It is far above
	// what the arrival rate needs: at 1500/s every sender is busy — the
	// generator has fallen behind — only if the fleet stalls for ~40 ms.
	openSenders = 64
	// stealLimit is the host CPU steal share above which a run is flagged
	// as measured on a contended machine.
	stealLimit = 0.10
	// stealSlack is how much more steal than the least-stolen measured
	// phase another phase may have and still count towards the serving
	// figures.
	stealSlack = 0.05
)

// phase is one bracketed stretch of a run: the client tally, the counter
// snapshots around it, and the uploads made during it.
type phase struct {
	name          string
	t             *tally
	before, after snapshot
	uploads       []time.Duration
}

func (p *phase) elapsed() time.Duration { return p.after.at.Sub(p.before.at) }

// run executes one benchmark run of cfg and returns its result; an error
// means the run could not be carried out at all.
//
// An untraced run sets the workload up from nothing setupRepeats times and
// measures an equal share of the window on each fleet, spread across the
// run's wall time: setup_s is the median over the fleets, and the serving
// figures are medians over the fleet phases least disturbed by hypervisor
// steal. The traced run has one fleet and splits its window between an
// untraced half, for the counters and the tracing-overhead baseline, and a
// traced half; a workload with an open-loop rate then runs an open-loop
// phase of the same length for the latency-from-due and generator figures.
func run(ctx context.Context, cfg config, logw io.Writer) (*result, error) {
	res := &result{cfg: cfg, fp: takeFingerprint(cfg.root)}
	var sp *spanRecorder
	repeats, share := setupRepeats, cfg.window/setupRepeats
	if cfg.traced {
		sp = newSpanRecorder()
		repeats, share = 1, cfg.window/2
	}

	var (
		f        *fleet
		measured []*phase
		uploads  []time.Duration // unloaded, after each untraced fleet's window
	)
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	for n := 0; n < repeats; n++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = setUp(ctx, cfg, n, sp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0))
		fmt.Fprintf(logw, "set-up %d: %.3fs\n", n+1, res.setups[n].Seconds())
		if _, err := res.drive(ctx, f, "warm-up", warmup, nil); err != nil {
			return nil, err
		}
		m, err := res.drive(ctx, f, "measured", share, nil)
		if err != nil {
			return nil, err
		}
		measured = append(measured, m)
		if !cfg.traced {
			if err := res.unloadedUploads(f, unloadedUploads/setupRepeats, &uploads); err != nil {
				return nil, err
			}
		}
	}
	var traced, open *phase
	if cfg.traced {
		privehd.SetTraceSampling(1)
		privehd.OnTrace(sp.observe)
		var err error
		traced, err = res.drive(ctx, f, "traced", share, sp)
		privehd.OnTrace(nil)
		privehd.SetTraceSampling(0)
		if err != nil {
			return nil, err
		}
		if f.w.rate > 0 {
			if open, err = res.drive(ctx, f, "open-loop", share, nil); err != nil {
				return nil, err
			}
		}
	}
	verify, err := res.verify(f)
	if err != nil {
		return nil, err
	}

	for _, p := range append(measured, traced, open) {
		if p == nil {
			continue
		}
		res.attempted += p.t.sent
		res.failed += p.t.failedTotal() + p.t.wrong
		if p.t.ok == 0 {
			res.problems = append(res.problems, p.name+": no request succeeded")
		}
		if steal := stealShare(p.before.host, p.after.host); steal > stealLimit {
			res.flags = append(res.flags, fmt.Sprintf("%s: the hypervisor stole %.0f%% of the machine's CPU time; figures from this run are unreliable",
				p.name, 100*steal))
		}
		if generatorBehind(p.t) {
			res.flags = append(res.flags, fmt.Sprintf("%s: open-loop generator fell behind: %d of %d requests were due with all %d senders busy; late p99 %.3fms",
				p.name, p.t.waits, p.t.sent, openSenders, ms(quantile(p.t.late, 0.99))))
		}
	}
	if cfg.traced {
		load := measured[0]
		if open != nil {
			load = open
		}
		res.layerMetrics(measured[0], traced, load, sp)
		path := fmt.Sprintf("%s/spans/%s-seed%d-%d.jsonl", cfg.buildDir(), cfg.workload.name, cfg.seed, time.Now().Unix())
		if err := sp.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.spansPath = path
	} else {
		res.endToEndMetrics(measured, verify, uploads)
	}
	return res, nil
}

// drive runs one load phase of length d against the fleet, with the
// publisher beside it when the workload has one, brackets it with counter
// snapshots and audits it. The open-loop phase runs at the workload's
// rate, every other phase is a closed loop. sp is nil outside the traced
// phase.
func (res *result) drive(ctx context.Context, f *fleet, name string, d time.Duration, sp *spanRecorder) (*phase, error) {
	p := &phase{name: name}
	var err error
	if p.before, err = takeSnapshot(f.io); err != nil {
		return nil, err
	}
	var pub *publisher
	if f.w.uploadEvery > 0 {
		pub = startPublisher(f.w.uploadEvery, func() error {
			s := sp.start("manager.upload", 0, 0)
			_, err := f.mgr.Upload(modelName, f.blob, true)
			sp.end(s)
			return err
		})
	}
	do := f.request(sp, len(res.phases))
	if name == "open-loop" {
		p.t = openLoop(ctx, f.w.rate, openSenders, d, do)
	} else {
		p.t = closedLoop(ctx, runtime.NumCPU(), d, do)
	}
	if pub != nil {
		pub.halt()
		if pub.err != nil {
			return nil, fmt.Errorf("%s: upload: %w", name, pub.err)
		}
		p.uploads = pub.lats
	}
	if p.after, err = takeSnapshot(f.io); err != nil {
		return nil, err
	}
	res.finish(p, f)
	return p, nil
}

// finish files a phase, checks its labels and audits its counters.
func (res *result) finish(p *phase, f *fleet) {
	res.phases = append(res.phases, p)
	if p.t.wrong > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%s: %d served labels differ from Pipeline.PredictVector", p.name, p.t.wrong))
	}
	if err := audit(p.name, p.before, p.after, p.t, len(p.uploads), f.w.groups()); err != nil {
		res.problems = append(res.problems, err.Error())
	}
}

// request returns the function the load loops call for request i. The
// serve workloads send prepared queries; edge-private sends raw inputs
// through Client.Predict, which the traced phase splits into its two
// layers: Edge.Prepare, then PredictPrepared — what Pool.Predict does.
func (f *fleet) request(sp *spanRecorder, phaseNo int) request {
	n := len(f.inputs)
	reqBase := (phaseNo + 1) << 32
	return func(i int) (bool, error) {
		k := i % n
		var (
			label int
			err   error
		)
		switch {
		case sp != nil:
			req := reqBase + i
			root := sp.start("request", 0, req)
			q := f.queries[k]
			if f.w.private {
				s := sp.start("edge.prepare", root, req)
				q, err = f.edge.Prepare(f.inputs[k])
				sp.end(s)
			}
			if err == nil {
				s := sp.start("client.call", root, req)
				label, _, err = f.call.PredictPrepared(q)
				sp.end(s)
			}
			sp.end(root)
		case f.w.private:
			label, _, err = f.call.Predict(f.inputs[k])
		default:
			label, _, err = f.call.PredictPrepared(f.queries[k])
		}
		return err == nil && label != f.want[k], err
	}
}

// verification is the pass after the window that sends every test input
// once.
type verification struct {
	correct, total int
}

// verify sends each test input once, through the same path as the load,
// checks each label against the oracle and counts labels equal to the
// dataset's truth.
func (res *result) verify(f *fleet) (verification, error) {
	p := &phase{name: "verify", t: &tally{}}
	var err error
	if p.before, err = takeSnapshot(f.io); err != nil {
		return verification{}, err
	}
	var (
		next    atomic.Int64
		correct atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	do := f.request(nil, 0)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for i := int(next.Add(1) - 1); i < len(f.inputs); i = int(next.Add(1) - 1) {
				t0 := time.Now()
				wrong, err := do(i)
				lat := time.Since(t0)
				t.record(err, wrong, lat, lat)
				if err == nil && !wrong && f.want[i] == f.truth[i] {
					correct.Add(1)
				}
			}
			mu.Lock()
			p.t.merge(&t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if p.after, err = takeSnapshot(f.io); err != nil {
		return verification{}, err
	}
	res.finish(p, f)
	if n := p.t.failedTotal(); n > 0 {
		res.problems = append(res.problems, fmt.Sprintf("verify: %d of %d requests failed", n, p.t.sent))
	}
	return verification{correct: int(correct.Load()), total: len(f.inputs)}, nil
}

// unloadedUploads times n calls of Manager.Upload with no traffic beside
// them and appends their latencies to lats.
func (res *result) unloadedUploads(f *fleet, n int, lats *[]time.Duration) error {
	p := &phase{name: "uploads", t: &tally{}}
	var err error
	if p.before, err = takeSnapshot(f.io); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.mgr.Upload(modelName, f.blob, true); err != nil {
			return fmt.Errorf("upload: %w", err)
		}
		p.uploads = append(p.uploads, time.Since(t0))
	}
	if p.after, err = takeSnapshot(f.io); err != nil {
		return err
	}
	res.finish(p, f)
	*lats = append(*lats, p.uploads...)
	return nil
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
