package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"privehd"
)

// workload is one traffic mix. Every workload trains at D=2048 on the full
// isolet-s split, so class planes have the integer width a real release
// has; the reasons each one exists are recorded in BENCHMARK.json.
type workload struct {
	name string
	// private serves the paper's DP release (pruned, noised, default
	// quantizer) to edges that send raw inputs through Client.Predict with
	// a query mask; otherwise a noise-free model answers prepared,
	// unmasked bipolar queries.
	private bool
	// dimShards splits the model into that many dimension slices, one
	// registry and listener each; 1 serves the whole model.
	dimShards int
	// replicas is the number of listeners per shard cell.
	replicas int
	// rate, when set, adds an open-loop phase at this many arrivals per
	// second to the traced run. Every measured phase is a closed loop with
	// one worker per CPU: on a virtual machine whose vCPUs the hypervisor
	// deschedules, an open loop delays every arrival in a descheduled
	// stretch, so its percentiles track the host's CPU steal from run to
	// run, while a closed loop delays only the requests in flight.
	rate float64
	// uploadEvery is the Manager.Upload schedule run beside the traffic;
	// 0 runs none.
	uploadEvery time.Duration

	// small trains on the small split at a small dimension. Only the
	// benchmark's own tests set it, to keep them fast.
	small bool
}

var workloads = map[string]workload{
	"serve-cluster": {name: "serve-cluster", dimShards: 1, replicas: 2},
	"serve-sharded": {name: "serve-sharded", dimShards: 2, replicas: 1},
	// The open-loop rate is about half of this path's closed-loop capacity
	// on a 2-core x86 box (3.0–3.7k predictions/s), so queueing shows
	// without the generator saturating the machine. Each upload rebuilds the
	// release's encoder and holds both cores for ~30 ms, delaying the
	// requests behind it; one every two seconds keeps that share well below
	// the 5% a p95 looks past, where more frequent uploads leave the
	// percentile swinging with the length of each stall.
	"edge-private": {name: "edge-private", private: true, dimShards: 1, replicas: 1,
		rate: 1500, uploadEvery: 2 * time.Second},
}

const (
	modelName = "bench"
	benchDim  = 2048
	// dpEpsilon and dpDelta are the paper's default privacy budget (doc.go);
	// dpKeepShare of the dimensions survive pruning.
	dpEpsilon   = 8
	dpDelta     = 1e-5
	dpKeepShare = 2 // keep D/2
	maskShare   = 4 // mask D/4 query dimensions
	// unloadedUploads is how many uploads an untraced run times for
	// upload_ms, with no traffic beside them: an equal share after each
	// fleet's measured phase, so they too are spread across the run.
	unloadedUploads = 24
)

func (w workload) dim() int {
	if w.small {
		return 512
	}
	return benchDim
}

// groups is how many shard groups every prediction scatters across.
func (w workload) groups() int { return w.dimShards }

// fleet is one set-up workload: the trained reference pipeline, its saved
// release, a Manager-backed model store, the replica listeners and the
// client connected to them.
type fleet struct {
	w      workload
	pipe   *privehd.Pipeline // the reference the oracle scores with
	blob   []byte            // the release as Pipeline.Save wrote it
	edge   *privehd.Edge
	mgr    *privehd.Manager
	client privehd.Client
	call   predictor // the client as the load loops call it
	io     *ioCounters
	dir    string

	// inputs are the raw test inputs in seed order; queries their
	// prepared hypervectors (serve workloads); want the label the
	// reference pipeline gives each prepared query; truth the dataset
	// label.
	inputs  [][]float64
	queries [][]float64
	want    []int
	truth   []int

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// predictor is the part of the client the load loops call. Tests wrap it
// to inject faults the checks must catch.
type predictor interface {
	Predict(x []float64) (int, []float64, error)
	PredictPrepared(q []float64) (int, []float64, error)
}

// setUp builds a fleet from nothing: dataset, training, release, store,
// listeners and client. Spans around Train and Connect go to sp when it is
// non-nil. n numbers the set-up within the run for its store directory.
func setUp(ctx context.Context, cfg config, n int, sp *spanRecorder) (_ *fleet, err error) {
	w := cfg.workload
	setupSpan := sp.start("setup", 0, 0)
	defer sp.end(setupSpan)

	ds, err := privehd.LoadDataset("isolet-s", w.small)
	if err != nil {
		return nil, err
	}
	opts := []privehd.Option{privehd.WithDim(w.dim())}
	if w.private {
		opts = append(opts,
			privehd.WithPruning(w.dim()/dpKeepShare),
			privehd.WithNoise(dpEpsilon, dpDelta),
			privehd.WithNoiseSeed(noiseSeed(cfg.seed)))
	} else {
		opts = append(opts, privehd.WithRetrain(0))
	}
	pipe, err := privehd.New(opts...)
	if err != nil {
		return nil, err
	}
	s := sp.start("setup.train", setupSpan, 0)
	err = pipe.Train(ds.TrainX, ds.TrainY)
	sp.end(s)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		return nil, fmt.Errorf("save release: %w", err)
	}

	ctx, cancel := context.WithCancel(ctx)
	f := &fleet{w: w, pipe: pipe, blob: buf.Bytes(), io: &ioCounters{}, cancel: cancel,
		dir: filepath.Join(cfg.buildDir(), fmt.Sprintf("store-%d-%d", os.Getpid(), n))}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := os.RemoveAll(f.dir); err != nil {
		return nil, err
	}
	reg := privehd.NewRegistry()
	if f.mgr, err = privehd.OpenManager(f.dir, reg, privehd.WithStoreRetain(2)); err != nil {
		return nil, fmt.Errorf("open manager: %w", err)
	}
	if _, err := f.mgr.Upload(modelName, f.blob, true); err != nil {
		return nil, fmt.Errorf("upload release: %w", err)
	}

	// The whole model is served from the Manager's registry; a sharded
	// model from one registry per dimension slice, so each listener
	// advertises exactly its slice.
	served := []*privehd.Registry{reg}
	if w.dimShards > 1 {
		served = nil
		for i := 0; i < w.dimShards; i++ {
			d0, d1 := i*w.dim()/w.dimShards, (i+1)*w.dim()/w.dimShards
			r := privehd.NewRegistry()
			err := r.RegisterShard(modelName, pipe, privehd.ShardSlice{
				DimOffset: d0, DimLen: d1 - d0, ClassOffset: 0, ClassCount: pipe.Classes()})
			if err != nil {
				return nil, fmt.Errorf("register shard %d: %w", i, err)
			}
			served = append(served, r)
		}
	}
	var addrs []string
	for _, r := range served {
		for i := 0; i < w.replicas; i++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, lis.Addr().String())
			f.wg.Add(1)
			go func(r *privehd.Registry) {
				defer f.wg.Done()
				privehd.ServeRegistry(ctx, countListener(lis, f.io), r)
			}(r)
		}
	}

	var edgeOpts []privehd.Option
	if w.private {
		edgeOpts = append(edgeOpts, privehd.WithQueryMask(w.dim()/maskShare))
	}
	if f.edge, err = pipe.Edge(edgeOpts...); err != nil {
		return nil, err
	}
	topo := privehd.TopologyPool
	switch {
	case w.dimShards > 1:
		topo = privehd.TopologySharded
	case len(addrs) > 1:
		topo = privehd.TopologyCluster
	}
	// At most one connection per CPU across the whole fleet.
	poolSize := max(1, runtime.NumCPU()/len(addrs))
	s = sp.start("setup.connect", setupSpan, 0)
	dialCtx, dialCancel := context.WithTimeout(ctx, 10*time.Second)
	f.client, err = privehd.Connect(dialCtx, privehd.Target{Addrs: addrs, Model: modelName, Topology: topo},
		privehd.WithEdge(f.edge), privehd.WithConnectPool(privehd.WithPoolSize(poolSize)))
	dialCancel()
	sp.end(s)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	p, ok := f.client.(predictor)
	if !ok {
		return nil, fmt.Errorf("client %T has no PredictPrepared", f.client)
	}
	f.call = p
	if cfg.wrap != nil {
		f.call = cfg.wrap(f.call)
	}
	return f, f.prepareInputs(ds, cfg.seed)
}

// prepareInputs orders the test split by the seed and computes what the
// oracle expects for each input: the reference pipeline's label for the
// query the edge prepares from it.
func (f *fleet) prepareInputs(ds *privehd.Dataset, seed int64) error {
	order := rand.New(rand.NewSource(seed)).Perm(len(ds.TestX))
	f.inputs = make([][]float64, len(order))
	f.queries = make([][]float64, len(order))
	f.want = make([]int, len(order))
	f.truth = make([]int, len(order))
	for i, j := range order {
		q, err := f.edge.Prepare(ds.TestX[j])
		if err != nil {
			return fmt.Errorf("prepare query: %w", err)
		}
		label, err := f.pipe.PredictVector(q)
		if err != nil {
			return fmt.Errorf("reference prediction: %w", err)
		}
		f.inputs[i], f.queries[i], f.want[i], f.truth[i] = ds.TestX[j], q, label, ds.TestY[j]
	}
	return nil
}

// noiseSeed maps the workload seed to a nonzero DP noise seed (zero would
// make the pipeline derive one from its encoder seed instead).
func noiseSeed(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31 | 1
}

// close stops the client, the listeners and the store, and waits for every
// serving goroutine to end.
func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	f.cancel()
	f.wg.Wait()
	os.RemoveAll(f.dir)
}
