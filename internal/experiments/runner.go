package experiments

import (
	"fmt"
	"sync"

	"privehd/internal/dataset"
	"privehd/internal/hdc"
)

// encodedSet is a dataset encoded once at MaxDim; sweeps slice prefixes.
type encodedSet struct {
	data    *dataset.Dataset
	encoder hdc.Encoder
	train   [][]float64
	test    [][]float64
}

// levelEncoder returns the encoder as *hdc.LevelEncoder (panics if the set
// was built with the scalar encoding — an internal misuse).
func (e *encodedSet) levelEncoder() *hdc.LevelEncoder {
	return e.encoder.(*hdc.LevelEncoder)
}

// scalarEncoder returns the encoder as *hdc.ScalarEncoder.
func (e *encodedSet) scalarEncoder() *hdc.ScalarEncoder {
	return e.encoder.(*hdc.ScalarEncoder)
}

// Runner caches datasets and their encodings across experiments: encoding
// at D_hv = 10^4 dominates the harness runtime, and every figure can share
// the same encoded corpus without changing results (all are seeded
// identically anyway).
type Runner struct {
	ctx Context

	mu     sync.Mutex
	data   map[string]*dataset.Dataset
	level  map[string]*encodedSet
	scalar map[string]*encodedSet
}

// NewRunner validates the context and returns an empty-cached runner.
func NewRunner(ctx Context) (*Runner, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	return &Runner{
		ctx:    ctx,
		data:   make(map[string]*dataset.Dataset),
		level:  make(map[string]*encodedSet),
		scalar: make(map[string]*encodedSet),
	}, nil
}

// Dataset returns (and caches) a standard workload.
func (r *Runner) Dataset(name string) (*dataset.Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.data[name]; ok {
		return d, nil
	}
	d, err := dataset.ByName(name, r.ctx.Scale)
	if err != nil {
		return nil, err
	}
	r.data[name] = d
	return d, nil
}

// Level returns the dataset encoded with the Eq. 2b level encoder at
// MaxDim, cached.
func (r *Runner) Level(name string) (*encodedSet, error) {
	return r.encoded(name, r.level, func(d *dataset.Dataset) (hdc.Encoder, error) {
		return hdc.NewLevelEncoder(hdc.Config{
			Dim: r.ctx.MaxDim, Features: d.Features, Levels: r.ctx.Levels, Seed: r.ctx.Seed,
		})
	})
}

// Scalar returns the dataset encoded with the Eq. 2a scalar encoder at
// MaxDim, cached. The scalar encoding is used wherever the experiment
// needs the Eq. 10 reconstruction attack.
func (r *Runner) Scalar(name string) (*encodedSet, error) {
	return r.encoded(name, r.scalar, func(d *dataset.Dataset) (hdc.Encoder, error) {
		return hdc.NewScalarEncoder(hdc.Config{
			Dim: r.ctx.MaxDim, Features: d.Features, Levels: r.ctx.Levels, Seed: r.ctx.Seed + 1,
		})
	})
}

func (r *Runner) encoded(name string, cache map[string]*encodedSet, mk func(*dataset.Dataset) (hdc.Encoder, error)) (*encodedSet, error) {
	d, err := r.Dataset(name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := cache[name]; ok {
		return e, nil
	}
	enc, err := mk(d)
	if err != nil {
		return nil, fmt.Errorf("experiments: building encoder for %s: %w", name, err)
	}
	e := &encodedSet{
		data:    d,
		encoder: enc,
		train:   hdc.EncodeBatch(enc, d.TrainX, r.ctx.Workers),
		test:    hdc.EncodeBatch(enc, d.TestX, r.ctx.Workers),
	}
	cache[name] = e
	return e, nil
}
