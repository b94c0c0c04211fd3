package main

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privehd"
)

// tally is what the client side saw in one phase.
type tally struct {
	sent   int
	ok     int             // replies whose label the oracle accepted
	wrong  int             // replies whose label the oracle rejected
	failed map[string]int  // by kind: deadline, transport, other
	lats   []time.Duration // call latency: from send to reply
	// fromDue is latency from when each request was due: in a closed loop
	// the call latency, in the open loop the call latency plus how late
	// the generator sent it.
	fromDue []time.Duration
	late    []time.Duration // open loop: how late each request left the generator
	waits   int             // open loop: dispatches that found every sender busy
}

func (t *tally) failedTotal() int {
	n := 0
	for _, v := range t.failed {
		n += v
	}
	return n
}

func (t *tally) merge(o *tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.wrong += o.wrong
	for k, v := range o.failed {
		if t.failed == nil {
			t.failed = map[string]int{}
		}
		t.failed[k] += v
	}
	t.lats = append(t.lats, o.lats...)
	t.fromDue = append(t.fromDue, o.fromDue...)
	t.late = append(t.late, o.late...)
	t.waits += o.waits
}

// record files one finished request with its call latency and its
// latency from when it was due.
func (t *tally) record(err error, wrong bool, lat, fromDue time.Duration) {
	t.sent++
	switch {
	case err != nil:
		if t.failed == nil {
			t.failed = map[string]int{}
		}
		t.failed[errKind(err)]++
	case wrong:
		t.wrong++
	default:
		t.ok++
		t.lats = append(t.lats, lat)
		t.fromDue = append(t.fromDue, fromDue)
	}
}

func errKind(err error) string {
	switch {
	case errors.Is(err, privehd.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, privehd.ErrTransport):
		return "transport"
	}
	return "other"
}

// request sends request number i and reports whether its label was wrong.
type request func(i int) (wrong bool, err error)

// closedLoop runs workers loops for d, each sending its next request as
// soon as the previous reply lands. Worker k sends requests k, k+workers,
// k+2·workers, …
func closedLoop(ctx context.Context, workers int, d time.Duration, do request) *tally {
	var (
		until = time.Now().Add(d)
		mu    sync.Mutex
		total tally
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var t tally
			for i := w; ctx.Err() == nil && time.Now().Before(until); i += workers {
				t0 := time.Now()
				wrong, err := do(i)
				lat := time.Since(t0)
				t.record(err, wrong, lat, lat)
			}
			mu.Lock()
			total.merge(&t)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return &total
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// whether or not earlier replies have landed. A dispatcher hands each due
// request to one of senders goroutines over an unbuffered channel, so
// when every sender is busy with a request the dispatch blocks, is counted
// in waits, and the delay shows as lateness. Each request is timed both
// from when it was sent and from when it was due; the second charges a
// stall to every request it delays, and also the generator's own timer
// overshoot, which lateness reports.
func openLoop(ctx context.Context, rate float64, senders int, d time.Duration, do request) *tally {
	type job struct {
		i   int
		due time.Time
	}
	var (
		interval = time.Duration(float64(time.Second) / rate)
		jobs     = make(chan job)
		busy     atomic.Int64
		mu       sync.Mutex
		total    tally
		wg       sync.WaitGroup
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for j := range jobs {
				busy.Add(1)
				t0 := time.Now()
				t.late = append(t.late, t0.Sub(j.due))
				wrong, err := do(j.i)
				busy.Add(-1)
				t.record(err, wrong, time.Since(t0), time.Since(j.due))
			}
			mu.Lock()
			total.merge(&t)
			mu.Unlock()
		}()
	}
	start := time.Now()
	n, waits := int(d/interval), 0
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case jobs <- job{i, due}:
		default:
			// A sender that has taken a job but not yet started it is not
			// busy: only a dispatch blocked by requests in flight counts.
			if busy.Load() >= int64(senders) {
				waits++
			}
			jobs <- job{i, due}
		}
	}
	close(jobs)
	wg.Wait()
	total.waits = waits
	return &total
}

// generatorBehind reports whether an open-loop generator fell behind its
// schedule: some request was due while every sender was still busy, so the
// generator could not send it on time however precise its timer. Timer
// overshoot alone — about half a millisecond per sleep on Linux — is
// reported as lateness but does not flag the run.
func generatorBehind(t *tally) bool { return t.waits > 0 }

// quantile returns the q-quantile of ds (nearest rank), sorting ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

// publisher re-uploads the release on a fixed schedule until stopped.
type publisher struct {
	stop chan struct{}
	done chan struct{}
	lats []time.Duration
	err  error
}

// startPublisher calls upload now and then every period until halted.
func startPublisher(period time.Duration, upload func() error) *publisher {
	p := &publisher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			t0 := time.Now()
			if err := upload(); err != nil {
				p.err = err
				return
			}
			p.lats = append(p.lats, time.Since(t0))
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// halt stops the publisher and waits for any upload in progress.
func (p *publisher) halt() {
	close(p.stop)
	<-p.done
}
