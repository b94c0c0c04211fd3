package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"privehd"
)

// span is one timed call into a layer, made by the benchmark's own code.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent,omitempty"` // 0: root
	Req    int    `json:"req"`              // request id; spans of one request share it
	Start  int64  `json:"start_ns"`         // since the recorder began
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends, together with the
// wire-stage entries the program reports through privehd.OnTrace. A nil
// recorder records nothing, so untraced runs pay one nil check per span.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	wire  []privehd.TraceEntry
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span and returns its id.
func (r *spanRecorder) start(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Req: req, Start: now, End: -1})
	return id
}

func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// observe is the privehd.OnTrace collector.
func (r *spanRecorder) observe(e privehd.TraceEntry) {
	r.mu.Lock()
	r.wire = append(r.wire, e)
	r.mu.Unlock()
}

// layerTimes is the self time of every closed span, grouped by span name.
// A span's self time is its duration minus the part of it its children
// cover.
func (r *spanRecorder) layerTimes() map[string][]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered(s, children[s.ID])))
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// wireFrames returns the entries of successful request frames: those the
// server reported its stage breakdown on. A sharded prediction also yields
// one coordinator entry for the whole scatter–gather, which has none.
func (r *spanRecorder) wireFrames() []privehd.TraceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ok []privehd.TraceEntry
	for _, e := range r.wire {
		if (e.Outcome == "" || e.Outcome == "ok") && e.ServerTotalNs > 0 {
			ok = append(ok, e)
		}
	}
	return ok
}

// write saves every span and wire entry as JSON lines.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *spanRecorder) encode(out io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, e := range r.wire {
		if err := enc.Encode(struct {
			Trace string             `json:"trace"`
			Wire  privehd.TraceEntry `json:"wire"`
		}{fmt.Sprintf("%016x", e.TraceID), e}); err != nil {
			return err
		}
	}
	return w.Flush()
}
