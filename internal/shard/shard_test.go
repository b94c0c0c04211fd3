package shard

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"privehd/internal/cluster"
	"privehd/internal/offload"
	"privehd/internal/registry"
)

// silentListener accepts connections and never answers them: the
// handshake of anything dialing it hangs until the dialer gives up.
func silentListener(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return lis.Addr().String()
}

// TestDiscoveryDialBoundedByPoolDialTimeout: a replica that accepts but
// never answers must fail discovery after the pool template's DialTimeout,
// not hang for as long as the caller's context allows.
func TestDiscoveryDialBoundedByPoolDialTimeout(t *testing.T) {
	addr := silentListener(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	co, err := New(ctx, Config{
		Addrs: []string{addr},
		Pool:  cluster.PoolConfig{DialTimeout: 200 * time.Millisecond},
	})
	elapsed := time.Since(start)
	if err == nil {
		co.Close()
		t.Fatal("discovery against a silent replica succeeded")
	}
	if !errors.Is(err, offload.ErrTransport) {
		t.Errorf("err = %v, want ErrTransport", err)
	}
	if elapsed >= 2*time.Second {
		t.Errorf("discovery gave up after %v, want well under 2s with a 200ms DialTimeout", elapsed)
	}
}

func groupsOf(infos ...registry.ShardInfo) []*group {
	gs := make([]*group, len(infos))
	for i, in := range infos {
		gs[i] = &group{info: in, key: in.String()}
	}
	return gs
}

func TestCheckTiling(t *testing.T) {
	const dim, classes = 100, 10
	slice := func(dimOff, dimLen, classOff, classCount int) registry.ShardInfo {
		return registry.ShardInfo{
			DimOffset: dimOff, DimLen: dimLen,
			ClassOffset: classOff, ClassCount: classCount,
			FullDim: dim, FullClasses: classes,
		}
	}
	cases := []struct {
		name   string
		groups []*group
		ok     bool
	}{
		{"whole model", groupsOf(slice(0, dim, 0, classes)), true},
		{"2x2 dim-by-class grid", groupsOf(
			slice(0, 40, 0, 4), slice(40, 60, 0, 4),
			slice(0, 40, 4, 6), slice(40, 60, 4, 6),
		), true},
		{"dimension gap", groupsOf(slice(0, 40, 0, classes), slice(50, 50, 0, classes)), false},
		{"overlap", groupsOf(slice(0, 60, 0, classes), slice(40, 60, 0, classes)), false},
		{"full geometry disagreement", groupsOf(
			slice(0, 50, 0, classes),
			registry.ShardInfo{DimOffset: 50, DimLen: 50, ClassCount: classes, FullDim: dim, FullClasses: classes + 1},
		), false},
		{"invalid descriptor", groupsOf(slice(0, dim, 0, classes), slice(dim, 0, 0, classes)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkTiling(tc.groups)
			if tc.ok && err != nil {
				t.Fatalf("checkTiling refused a valid tiling: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrBadTiling) {
				t.Fatalf("err = %v, want ErrBadTiling", err)
			}
		})
	}
}

func TestReduce(t *testing.T) {
	// Two dimension shards of classes 0–1 and one whole-dimension shard
	// of class 2 (whose Σv² is zero: an empty class).
	results := []gatherResult{
		{info: registry.ShardInfo{ClassOffset: 0, ClassCount: 2},
			partials: [][]int64{{3, -4}, {1, 1}}, normSq: []float64{4, 9}},
		{info: registry.ShardInfo{ClassOffset: 0, ClassCount: 2},
			partials: [][]int64{{5, 2}, {-1, 7}}, normSq: []float64{12, 16}},
		{info: registry.ShardInfo{ClassOffset: 2, ClassCount: 1},
			partials: [][]int64{{9}, {2}}, normSq: []float64{0}},
	}
	cases := []struct {
		q    int
		want []float64
	}{
		{0, []float64{8 / math.Sqrt(16), -2 / math.Sqrt(25), math.Inf(-1)}},
		{1, []float64{0 / math.Sqrt(16), 8 / math.Sqrt(25), math.Inf(-1)}},
	}
	dots := make([]int64, 3)
	normSq := make([]float64, 3)
	for _, tc := range cases {
		got := reduce(results, tc.q, dots, normSq, make([]float64, 3))
		for l := range tc.want {
			if got[l] != tc.want[l] {
				t.Errorf("query %d class %d: score %v, want %v", tc.q, l, got[l], tc.want[l])
			}
		}
		if wantNorm := []float64{16, 25, 0}; normSq[0] != wantNorm[0] || normSq[1] != wantNorm[1] || normSq[2] != wantNorm[2] {
			t.Errorf("query %d: Σv² = %v, want %v", tc.q, normSq, wantNorm)
		}
	}
}
