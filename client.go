package privehd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

	"privehd/internal/cluster"
	"privehd/internal/offload"
	"privehd/internal/shard"
)

// Client is the topology-independent inference surface: one client
// whether the fleet behind it is a single connection, a pooled address, a
// replicated fleet, or a model split across shard replicas. Code written
// against Client chooses its serving topology with a Connect Target — a
// flag, not a code path — and reads what it resolved to from Status.
//
// Every client pairs its connections with a local Edge, so the §III-C
// privacy story is identical across topologies: inputs are encoded,
// quantized and masked on the device, and only obfuscated hypervectors
// cross the network. All methods are safe for concurrent use.
type Client interface {
	// Predict obfuscates one input on the edge and classifies it
	// remotely, returning the predicted label and per-class scores.
	Predict(x []float64) (int, []float64, error)
	// PredictContext is Predict bounded by ctx: the remaining context
	// budget is stamped on every request frame (Request.BudgetNs), so
	// servers shed work that can no longer answer in time, and
	// cancellation aborts client-side waits. A deadline exceeded on the
	// way out or in a server shed surfaces as ErrDeadlineExceeded. With
	// hedging enabled (Target.Hedge, WithHedging) a slow attempt races a
	// backup replica, first reply wins.
	PredictContext(ctx context.Context, x []float64) (int, []float64, error)
	// PredictPrepared classifies an already-prepared query hypervector
	// (the output of Edge().Prepare).
	PredictPrepared(q []float64) (int, []float64, error)
	// PredictPreparedContext is PredictPrepared bounded by ctx (see
	// PredictContext for the deadline and hedging semantics).
	PredictPreparedContext(ctx context.Context, q []float64) (int, []float64, error)
	// PredictBatch obfuscates and classifies a batch of inputs, splitting
	// it into frames of at most the server's MaxBatch queries.
	PredictBatch(X [][]float64) ([]int, error)
	// ListModels returns the serving registry's current listing — every
	// served model's name, version, geometry and public encoder setup,
	// with the default flagged.
	ListModels() ([]ModelInfo, error)
	// Edge returns the edge obfuscating the client's queries: the one
	// passed with WithEdge, or the one Connect auto-configured from the
	// server's advertised encoder setup.
	Edge() *Edge
	// Status snapshots what the client is connected to.
	Status() ClientStatus
	// Close releases the client's connections.
	Close() error
}

// ClientStatus is a point-in-time snapshot of a connected Client.
type ClientStatus struct {
	// Topology is the resolved topology — never TopologyAuto.
	Topology Topology
	// Model and ModelVersion identify the served model the client is
	// bound to, as of the handshake (hot swaps after it bump the version
	// server-side).
	Model        string
	ModelVersion int
	// Dim and Classes are the whole served model's geometry; MaxBatch is
	// the server's advertised per-frame query limit.
	Dim, Classes, MaxBatch int
	// Replicas lists every server address in use with its health and
	// load. A single connection reports one replica; a sharded client
	// reports the replicas of every shard group.
	Replicas []ReplicaStatus
	// Shards lists the shard descriptors of a sharded client, one per
	// failover group; nil for every other topology.
	Shards []ShardInfo
}

// ReplicaStatus is one replica's health snapshot: its address, whether it
// is currently admitted for traffic, and its connection/in-flight counts.
type ReplicaStatus = cluster.ReplicaStatus

// transport is what a client sends prepared queries through.
// *offload.Client (one pipelined connection), *cluster.Pool and
// *cluster.Cluster implement it directly; shardTransport adapts the
// scatter–gather coordinator.
type transport interface {
	Classify(ctx context.Context, q []float64) (int, []float64, error)
	ClassifyBatch(ctx context.Context, qs [][]float64) ([]int, error)
	ListModels(ctx context.Context) ([]offload.ModelListing, error)
	Close() error
}

// shardTransport packs each prepared query once and scatters it across
// the shard groups, gathering exact integer partial scores.
type shardTransport struct{ *shard.Coordinator }

func (s shardTransport) Classify(ctx context.Context, q []float64) (int, []float64, error) {
	packed, err := packPrepared(q)
	if err != nil {
		return 0, nil, err
	}
	return s.PredictPacked(ctx, packed)
}

func (s shardTransport) ClassifyBatch(ctx context.Context, qs [][]float64) ([]int, error) {
	packed := make([][]int8, len(qs))
	for i, q := range qs {
		var err error
		if packed[i], err = packPrepared(q); err != nil {
			return nil, err
		}
	}
	labels, _, err := s.PredictPackedBatch(ctx, packed)
	return labels, err
}

// packPrepared converts one prepared query to the packed wire form, or
// explains why sharded serving cannot carry it.
func packPrepared(q []float64) ([]int8, error) {
	p, ok := offload.PackQuery(q)
	if !ok {
		return nil, fmt.Errorf("%w: query is not quantized (WithRawQueries is incompatible with sharded serving)",
			ErrPartialUnsupported)
	}
	return p, nil
}

// client is the one Client implementation: an edge, the handshake it was
// configured from, and the transport of the resolved topology.
type client struct {
	topo  Topology
	edge  *Edge
	hello offload.ServerHello
	tr    transport
}

func (c *client) Edge() *Edge { return c.edge }

func (c *client) Predict(x []float64) (int, []float64, error) {
	return c.PredictContext(context.Background(), x)
}

func (c *client) PredictContext(ctx context.Context, x []float64) (int, []float64, error) {
	q, err := c.edge.Prepare(x)
	if err != nil {
		return 0, nil, err
	}
	return c.tr.Classify(ctx, q)
}

func (c *client) PredictPrepared(q []float64) (int, []float64, error) {
	return c.PredictPreparedContext(context.Background(), q)
}

func (c *client) PredictPreparedContext(ctx context.Context, q []float64) (int, []float64, error) {
	if len(q) != c.edge.Dim() {
		return 0, nil, fmt.Errorf("privehd: prepared query has dim %d, edge dim %d", len(q), c.edge.Dim())
	}
	return c.tr.Classify(ctx, q)
}

func (c *client) PredictBatch(X [][]float64) ([]int, error) {
	qs, err := c.edge.PrepareBatch(X)
	if err != nil {
		return nil, err
	}
	return c.tr.ClassifyBatch(context.Background(), qs)
}

func (c *client) ListModels() ([]ModelInfo, error) {
	listings, err := c.tr.ListModels(context.Background())
	if err != nil {
		return nil, err
	}
	return modelInfosFromListings(listings), nil
}

func (c *client) Status() ClientStatus {
	st := ClientStatus{
		Topology:     c.topo,
		Model:        c.hello.Model,
		ModelVersion: c.hello.ModelVersion,
		Dim:          c.hello.Dim,
		Classes:      c.hello.Classes,
		MaxBatch:     c.hello.MaxBatch,
	}
	switch t := c.tr.(type) {
	case *offload.Client:
		healthy := t.Err() == nil
		conns := 0
		if healthy {
			conns = 1
		}
		st.Replicas = []ReplicaStatus{{Addr: t.Peer(), Healthy: healthy, Conns: conns}}
	case *cluster.Pool:
		st.Replicas = []ReplicaStatus{t.Status()}
	case *cluster.Cluster:
		st.Replicas = t.Replicas()
	case shardTransport:
		st.Replicas = t.Replicas()
		st.Shards = t.Groups()
	}
	return st
}

func (c *client) Close() error { return c.tr.Close() }

// Topology selects how Connect arranges connections over the target
// addresses.
type Topology int

const (
	// TopologyAuto picks for you: one address is pooled; several
	// addresses dial the first reachable one and shard the client if it
	// advertises a shard descriptor, cluster it otherwise.
	TopologyAuto Topology = iota
	// TopologySingle is one pipelined connection to the first address.
	TopologySingle
	// TopologyPool is a bounded pool of reused connections to the first
	// address: requests from every goroutine interleave over (at most)
	// WithPoolSize connections, new connections are dialed only when the
	// live ones are saturated, idle ones are reaped, broken ones are
	// redialed with backoff, and a query failing with ErrTransport is
	// retried once on another connection (classification is idempotent).
	TopologyPool
	// TopologyCluster load-balances over the addresses as whole-model
	// replicas, each behind its own pool: a replica whose transport fails
	// is ejected and its in-flight requests retried on another, and
	// health probes re-admit it once it answers again. Callers only see
	// ErrNoHealthyReplicas when the whole fleet is down, or a typed
	// protocol error a live server actually answered.
	TopologyCluster
	// TopologySharded treats the addresses as slices of one logical
	// model (dimension and/or class shards) and scatter–gathers every
	// prediction across them, bit-identically to serving the unsplit
	// model. Replicas serving the same slice form a failover group. It
	// requires quantized queries: WithRawQueries edges are refused.
	TopologySharded
)

// String returns the topology's flag spelling ("auto", "single", "pool",
// "cluster", "sharded").
func (t Topology) String() string {
	switch t {
	case TopologyAuto:
		return "auto"
	case TopologySingle:
		return "single"
	case TopologyPool:
		return "pool"
	case TopologyCluster:
		return "cluster"
	case TopologySharded:
		return "sharded"
	}
	return "unknown"
}

// ParseTopology parses a topology flag value as spelled by
// Topology.String.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "auto", "":
		return TopologyAuto, nil
	case "single":
		return TopologySingle, nil
	case "pool":
		return TopologyPool, nil
	case "cluster":
		return TopologyCluster, nil
	case "sharded":
		return TopologySharded, nil
	}
	return 0, fmt.Errorf("privehd: unknown topology %q (want auto|single|pool|cluster|sharded)", s)
}

// Target names what Connect should reach: where the servers are, which
// model to bind to, and how to arrange connections over them.
type Target struct {
	// Network is the dial network (default "tcp").
	Network string
	// Addrs are the server addresses. Single-address topologies use the
	// first.
	Addrs []string
	// Model selects the served model (empty for each server's default).
	// Unknown names are refused with ErrUnknownModel.
	Model string
	// Topology arranges the connections (default TopologyAuto).
	Topology Topology
	// Hedge opts cluster and sharded topologies into hedged requests
	// with an adaptive delay learned from observed latency: a slow
	// attempt gets a backup sent to a second healthy replica, first
	// reply wins, the loser is canceled. WithHedging tunes the delay.
	// Single and pool topologies ignore it (nowhere else to hedge to).
	Hedge bool
}

// ConnectOption configures Connect and ConnectConn.
type ConnectOption func(*connectConfig)

type connectConfig struct {
	edge     *Edge
	edgeOpts []Option
	pool     cluster.PoolConfig
	probe    time.Duration
	hedge    *cluster.HedgePolicy
	logger   *slog.Logger
}

// WithEdge supplies the Edge whose obfuscated queries the client should
// carry. Without it Connect auto-configures one from the server's
// advertised encoder setup (layer defences on with WithEdgeOptions).
func WithEdge(e *Edge) ConnectOption {
	return func(c *connectConfig) { c.edge = e }
}

// WithEdgeOptions supplies pipeline options — typically the §III-C
// defences WithQueryMask and WithRawQueries — for the edge Connect
// auto-configures. Ignored when WithEdge provides one.
func WithEdgeOptions(opts ...Option) ConnectOption {
	return func(c *connectConfig) { c.edgeOpts = append(c.edgeOpts, opts...) }
}

// PoolOption tunes the connections Connect builds (see WithConnectPool).
type PoolOption func(*cluster.PoolConfig)

// WithPoolSize bounds how many connections each pool keeps (default 4).
func WithPoolSize(n int) PoolOption {
	return func(c *cluster.PoolConfig) {
		if n > 0 {
			c.Size = n
		}
	}
}

// WithPoolIOTimeout bounds how long a connection waits for progress: each
// frame write must complete within d, and whenever requests are in flight
// a reply must arrive within d of the last one (idle connections never
// time out). On expiry every in-flight call fails with an error wrapping
// ErrIOTimeout. Every topology defaults to 30s, so a hung server can never
// block a Predict forever; pass d ≤ 0 to disable the bound.
func WithPoolIOTimeout(d time.Duration) PoolOption {
	return func(c *cluster.PoolConfig) {
		if d <= 0 {
			c.IOTimeout = -1
			return
		}
		c.IOTimeout = d
	}
}

// WithConnectPool applies per-address pool options (WithPoolSize,
// WithPoolIOTimeout, …) to every connection pool Connect builds. The
// single-connection topology honours the io-timeout option only.
func WithConnectPool(opts ...PoolOption) ConnectOption {
	return func(c *connectConfig) {
		for _, o := range opts {
			o(&c.pool)
		}
	}
}

// WithConnectProbeInterval sets how often cluster and sharded topologies
// health-probe replicas and re-admit ejected ones (default 2s). Pass
// d ≤ 0 to disable probing — a dead replica then only recovers when all
// replicas were ejected and traffic falls back to retrying them.
func WithConnectProbeInterval(d time.Duration) ConnectOption {
	return func(c *connectConfig) {
		if d <= 0 {
			c.probe = -1
			return
		}
		c.probe = d
	}
}

// WithHedging opts cluster and sharded topologies into hedged requests
// (see Target.Hedge) and fixes the hedge delay: an attempt still in
// flight after delay gets a backup on a second healthy replica, first
// reply wins, the loser is canceled. Pass d ≤ 0 to keep the adaptive
// delay — roughly the p90 of recently observed latency, clamped to
// [1ms, 100ms] — which only hedges genuine stragglers.
func WithHedging(d time.Duration) ConnectOption {
	return func(c *connectConfig) {
		c.hedge = &cluster.HedgePolicy{}
		if d > 0 {
			c.hedge.Delay = d
		}
	}
}

// WithConnectLogger routes structured health-transition events of cluster
// and sharded topologies (replica ejected / re-admitted, with address and
// reason) to log. By default they are discarded.
func WithConnectLogger(log *slog.Logger) ConnectOption {
	return func(c *connectConfig) { c.logger = log }
}

func newConnectConfig(opts []ConnectOption) connectConfig {
	var cfg connectConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// hello is the handshake every connection of the client sends: the
// requested model, and the edge's dimensionality when one was supplied
// (zero asks the server to configure the edge from its answer).
func (cfg connectConfig) hello(model string) offload.Hello {
	h := offload.Hello{Model: model}
	if cfg.edge != nil {
		h.Dim = cfg.edge.Dim()
	}
	return h
}

// singleOpts applies the documented 30s io-timeout default to a bare
// connection, exactly as pools do, unless WithPoolIOTimeout(d ≤ 0)
// disabled it.
func (cfg connectConfig) singleOpts() []offload.ClientOption {
	switch iot := cfg.pool.IOTimeout; {
	case iot == 0:
		return []offload.ClientOption{offload.WithIOTimeout(cluster.DefaultIOTimeout)}
	case iot > 0:
		return []offload.ClientOption{offload.WithIOTimeout(iot)}
	}
	return nil
}

// Connect is the one constructor for every serving topology: it dials the
// target, performs (and validates) the protocol handshake, auto-configures
// the obfuscating edge from the server's advertised encoder setup unless
// WithEdge provides one, and returns the Client for the target's topology.
// Version or geometry mismatches and unknown models surface as typed
// errors (ErrVersionMismatch, ErrGeometryMismatch, ErrUnknownModel). The
// context bounds dialing and handshaking.
func Connect(ctx context.Context, t Target, opts ...ConnectOption) (Client, error) {
	if len(t.Addrs) == 0 {
		return nil, errors.New("privehd: Connect: no addresses in target")
	}
	if t.Network == "" {
		t.Network = "tcp"
	}
	cfg := newConnectConfig(opts)
	if t.Hedge && cfg.hedge == nil {
		cfg.hedge = &cluster.HedgePolicy{}
	}
	topo := t.Topology
	if topo == TopologyAuto {
		topo = TopologyPool
		if len(t.Addrs) > 1 {
			var err error
			if topo, err = sniffTopology(ctx, t, cfg.pool.DialTimeout); err != nil {
				return nil, err
			}
		}
	}
	switch topo {
	case TopologySingle:
		oc, err := offload.Dial(ctx, t.Network, t.Addrs[0], cfg.hello(t.Model), cfg.singleOpts()...)
		if err != nil {
			return nil, err
		}
		return newClient(topo, oc, oc.ServerHello(), cfg)
	case TopologyPool:
		pcfg := cfg.pool
		pcfg.Network, pcfg.Addr, pcfg.Hello = t.Network, t.Addrs[0], cfg.hello(t.Model)
		p := cluster.NewPool(pcfg)
		sh, err := p.Hello(ctx)
		if err != nil {
			p.Close()
			return nil, err
		}
		return newClient(topo, p, sh, cfg)
	case TopologyCluster:
		cl, err := cluster.NewCluster(cluster.ClusterConfig{
			Network:       t.Network,
			Addrs:         t.Addrs,
			Hello:         cfg.hello(t.Model),
			Pool:          cfg.pool,
			ProbeInterval: cfg.probe,
			Hedge:         cfg.hedge,
			Logger:        cfg.logger,
		})
		if err != nil {
			return nil, fmt.Errorf("privehd: %w", err)
		}
		sh, err := cl.Hello(ctx)
		if err != nil {
			cl.Close()
			return nil, err
		}
		return newClient(topo, cl, sh, cfg)
	case TopologySharded:
		co, err := shard.New(ctx, shard.Config{
			Network:       t.Network,
			Addrs:         t.Addrs,
			Model:         t.Model,
			Pool:          cfg.pool,
			ProbeInterval: cfg.probe,
			Hedge:         cfg.hedge,
			Logger:        cfg.logger,
		})
		if err != nil {
			return nil, err
		}
		return newClient(topo, shardTransport{co}, co.Hello(), cfg)
	}
	return nil, fmt.Errorf("privehd: Connect: unknown topology %d", int(t.Topology))
}

// ConnectConn performs the handshake over an existing connection — the
// escape hatch for connections Connect cannot dial itself: tapped
// connections (Tap) and in-memory pipes. It binds to model (empty for the
// server's default) and returns the same client Connect builds for
// TopologySingle, with the same defaults and options.
func ConnectConn(conn net.Conn, model string, opts ...ConnectOption) (Client, error) {
	cfg := newConnectConfig(opts)
	oc, err := offload.NewClient(conn, cfg.hello(model), cfg.singleOpts()...)
	if err != nil {
		return nil, err
	}
	return newClient(TopologySingle, oc, oc.ServerHello(), cfg)
}

// newClient pairs a handshaken transport with its edge — the supplied one
// or one auto-configured from the handshake — and closes the transport if
// the pairing is impossible.
func newClient(topo Topology, tr transport, sh offload.ServerHello, cfg connectConfig) (*client, error) {
	edge := cfg.edge
	var err error
	if edge == nil {
		edge, err = edgeFromServerHello(sh, cfg.edgeOpts...)
	}
	if err == nil && topo == TopologySharded {
		switch {
		case edge.Dim() != sh.Dim:
			err = fmt.Errorf("%w: edge dim %d, sharded model dim %d", ErrGeometryMismatch, edge.Dim(), sh.Dim)
		case edge.cfg.rawQueries:
			err = fmt.Errorf("%w: WithRawQueries edges send full-precision vectors, which cannot be partial-scored across shards",
				ErrPartialUnsupported)
		}
	}
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &client{topo: topo, edge: edge, hello: sh, tr: tr}, nil
}

// sniffTopology decides between cluster and sharded for a multi-address
// auto target: the first reachable address's handshake tells whether it
// serves a slice (shard descriptor in the ServerHello) or the whole
// model. Each dial and handshake gives up after dialTimeout, as pooled
// dials do, so a replica that accepts but never answers is skipped
// rather than hanging Connect.
func sniffTopology(ctx context.Context, t Target, dialTimeout time.Duration) (Topology, error) {
	if dialTimeout <= 0 {
		dialTimeout = cluster.DefaultDialTimeout
	}
	var lastErr error
	for _, addr := range t.Addrs {
		dctx, cancel := context.WithTimeout(ctx, dialTimeout)
		c, err := offload.Dial(dctx, t.Network, addr, offload.Hello{Model: t.Model})
		cancel()
		if err != nil {
			if errors.Is(err, ErrTransport) {
				lastErr = err
				continue
			}
			return 0, err
		}
		sharded := c.Shard() != nil && !c.Shard().Whole()
		c.Close()
		if sharded {
			return TopologySharded, nil
		}
		return TopologyCluster, nil
	}
	return 0, fmt.Errorf("privehd: Connect: no address reachable: %w", lastErr)
}
