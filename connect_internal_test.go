package privehd

// In-package tests for Connect's resolved wire configuration: they reach
// through the returned Client to the protocol connection to pin values the
// public surface only documents.

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"privehd/internal/cluster"
	"privehd/internal/offload"
)

func trainToy(t *testing.T) *Pipeline {
	t.Helper()
	var X [][]float64
	var y []int
	for i := 0; i < 24; i++ {
		c := i % 2
		x := make([]float64, 8)
		for k := range x {
			x[k] = 0.25 + 0.5*float64(c) + 0.02*float64((i+k)%5-2)
		}
		X = append(X, x)
		y = append(y, c)
	}
	p, err := New(WithDim(256), WithLevels(8), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(X, y); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConnectSingleIOTimeoutDefault(t *testing.T) {
	// Every topology Connect builds promises the same 30s reply-progress
	// bound unless the caller tunes it. Pools get it from the pool
	// defaults; the single-connection topology must apply it explicitly —
	// a hung server should never block a TopologySingle Predict forever.
	srv, err := NewServer(trainToy(t))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis)
	defer srv.Close()
	addr := lis.Addr().String()

	cases := []struct {
		name string
		opts []ConnectOption
		want time.Duration
	}{
		{"default", nil, cluster.DefaultIOTimeout},
		{"explicit", []ConnectOption{WithConnectPool(WithPoolIOTimeout(5 * time.Second))}, 5 * time.Second},
		{"disabled", []ConnectOption{WithConnectPool(WithPoolIOTimeout(-1))}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dialed, err := Connect(context.Background(),
				Target{Addrs: []string{addr}, Topology: TopologySingle}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer dialed.Close()
			// ConnectConn is the same single-connection client over a
			// caller's conn, with the same defaults.
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			handed, err := ConnectConn(conn, "", tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer handed.Close()
			for _, c := range []Client{dialed, handed} {
				oc, ok := c.(*client).tr.(*offload.Client)
				if !ok {
					t.Fatalf("TopologySingle sends through %T, want one *offload.Client", c.(*client).tr)
				}
				if got := oc.IOTimeout(); got != tc.want {
					t.Fatalf("wire IOTimeout = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestSniffTopologyDialBounded(t *testing.T) {
	// An auto multi-address target sniffs the first reachable replica's
	// handshake. Replicas that accept but never answer must each cost at
	// most the dial timeout, as a pooled dial does, not hang Connect for
	// as long as the caller's context allows.
	var mu sync.Mutex
	var held []net.Conn
	var addrs []string
	for i := 0; i < 2; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			for {
				c, err := lis.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				held = append(held, c)
				mu.Unlock()
			}
		}()
		addrs = append(addrs, lis.Addr().String())
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := sniffTopology(ctx, Target{Network: "tcp", Addrs: addrs}, 200*time.Millisecond)
	if !errors.Is(err, ErrTransport) {
		t.Errorf("err = %v, want ErrTransport", err)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Errorf("sniffing two silent replicas took %v, want well under 2s with a 200ms dial timeout", elapsed)
	}
}
