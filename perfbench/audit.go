package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"privehd"
)

// ioCounters tallies socket calls and bytes on the replica listeners the
// benchmark owns, from the server's side of each connection.
type ioCounters struct {
	reads, writes, in, out atomic.Int64
}

type ioTotals struct{ reads, writes, in, out int64 }

func (c *ioCounters) load() ioTotals {
	return ioTotals{c.reads.Load(), c.writes.Load(), c.in.Load(), c.out.Load()}
}

func countListener(lis net.Listener, c *ioCounters) net.Listener {
	return &countingListener{Listener: lis, c: c}
}

type countingListener struct {
	net.Listener
	c *ioCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

// countingConn counts every Read and Write call and the bytes they move.
// It forwards CloseWrite, so the server's graceful half-close still works
// through it.
type countingConn struct {
	net.Conn
	c *ioCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.out.Add(int64(n))
	return n, err
}

func (c *countingConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return c.Conn.Close()
}

// series is one /metrics scrape: every sample keyed by its series name
// with labels, exactly as exposed.
type series map[string]float64

// scrape renders the process's /metrics exposition in-process.
func scrape() (series, error) {
	rec := httptest.NewRecorder()
	privehd.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		return nil, fmt.Errorf("scrape /metrics: HTTP %d", rec.Code)
	}
	return parseExposition(rec.Body.String())
}

// parseExposition parses Prometheus text exposition into series.
func parseExposition(text string) (series, error) {
	s := series{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the series; an exemplar or timestamp may
		// follow the value.
		key, rest := line, ""
		sp := strings.IndexByte(line, ' ')
		if i := strings.IndexByte(line, '{'); i >= 0 && (sp < 0 || i < sp) {
			if j := strings.Index(line[i:], "} "); j >= 0 {
				key, rest = line[:i+j+1], line[i+j+1:]
			}
		} else if sp >= 0 {
			key, rest = line[:sp], line[sp:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[key] = v
	}
	return s, sc.Err()
}

// sum adds every sample of the named metric whose labels contain each of
// the given label pairs (written as `name="value"`).
func (s series) sum(name string, labels ...string) float64 {
	var total float64
	for key, v := range s {
		base, lbl := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			base, lbl = key[:i], key[i:]
		}
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta returns after − before for the named metric.
func delta(before, after series, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// snapshot is everything read at a phase boundary.
type snapshot struct {
	at      time.Time
	metrics series
	io      ioTotals
	cpu     time.Duration // process user+sys
	mem     runtime.MemStats
	host    hostCPU
}

// takeSnapshot reads the counters at a quiet moment. An idle-connection
// ping can land between reading the listener counters and scraping, so
// the scrape is retried until the listener counters did not move across
// it.
func takeSnapshot(io *ioCounters) (snapshot, error) {
	var s snapshot
	for try := 0; ; try++ {
		s.io = io.load()
		m, err := scrape()
		if err != nil {
			return s, err
		}
		if io.load() == s.io || try == 20 {
			s.metrics = m
			break
		}
	}
	s.cpu = processCPU()
	s.host = readHostCPU()
	runtime.ReadMemStats(&s.mem)
	s.at = time.Now()
	return s, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the machine-wide CPU time from /proc/stat, in clock ticks:
// all of it, and the part the hypervisor ran other guests in (steal).
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of the machine's CPU time between two readings
// that the hypervisor gave to other guests. A run with a high share was
// measured on a contended host.
func stealShare(before, after hostCPU) float64 {
	if after.total <= before.total {
		return 0
	}
	return float64(after.steal-before.steal) / float64(after.total-before.total)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// audit cross-checks one phase's client-side tally against the counters
// the program exports. Any disagreement is returned as an error.
//
//   - every reply the client received was counted by the servers once per
//     shard group, and no failed request more than that;
//   - the bytes the benchmark's listener wrappers saw equal the servers'
//     read and written byte counters;
//   - every Manager.Upload the benchmark made was one model publication.
func audit(phase string, before, after snapshot, t *tally, uploads, groups int) error {
	var errs []string
	replies := t.ok + t.wrong
	got := delta(before.metrics, after.metrics, "privehd_server_queries_total", fmt.Sprintf("model=%q", modelName))
	lo, hi := float64(replies*groups), float64((replies+t.failedTotal())*groups)
	if got < lo || got > hi {
		errs = append(errs, fmt.Sprintf("server counted %.0f queries, client received %d replies × %d shard groups", got, replies, groups))
	}
	in := delta(before.metrics, after.metrics, "privehd_server_read_bytes_total")
	out := delta(before.metrics, after.metrics, "privehd_server_written_bytes_total")
	if wantIn := after.io.in - before.io.in; in != float64(wantIn) {
		errs = append(errs, fmt.Sprintf("server read %.0f bytes, listeners saw %d", in, wantIn))
	}
	if wantOut := after.io.out - before.io.out; out != float64(wantOut) {
		errs = append(errs, fmt.Sprintf("server wrote %.0f bytes, listeners saw %d", out, wantOut))
	}
	pubs := delta(before.metrics, after.metrics, "privehd_model_publications_total", fmt.Sprintf("model=%q", modelName))
	if pubs != float64(uploads) {
		errs = append(errs, fmt.Sprintf("%.0f model publications, benchmark uploaded %d times", pubs, uploads))
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s: counter audit: %s", phase, strings.Join(errs, "; "))
	}
	return nil
}
