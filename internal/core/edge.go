package core

import (
	"fmt"
	"runtime"
	"sync"

	"privehd/internal/encslice"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/par"
	"privehd/internal/prune"
	"privehd/internal/quant"
)

// EdgeConfig assembles the §III-C inference-privacy path: the edge device
// encodes locally and obfuscates the query — 1-bit quantization plus random
// dimension masking — before offloading to an untrusted host. The host's
// full-precision model is neither accessed nor modified ("our technique
// does not need to modify or access the trained model").
type EdgeConfig struct {
	// HD is the encoder geometry; it must match the cloud model's
	// encoder (base hypervectors are shared public setup).
	HD hdc.Config
	// Encoding selects Eq. 2a or 2b.
	Encoding Encoding
	// Quantize applies 1-bit (bipolar) quantization to outgoing queries.
	Quantize bool
	// MaskDims nullifies this many randomly chosen dimensions of every
	// outgoing query (the same dimensions for all queries, chosen at
	// setup).
	MaskDims int
	// MaskSeed seeds the mask choice.
	MaskSeed uint64
}

// Edge prepares obfuscated queries on the device.
type Edge struct {
	cfg     EdgeConfig
	encoder hdc.Encoder
	// packed is the encoder's fused bit-sliced path, non-nil when the
	// device can derive the 1-bit query straight from popcounts.
	packed hdc.PackedEncoder
	mask   *prune.Mask // nil when MaskDims == 0
	// scratch pools the packed-query buffer the fused path quantizes into.
	scratch sync.Pool
}

// NewEdge builds the edge-side encoder.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	if err := cfg.HD.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaskDims < 0 || cfg.MaskDims >= cfg.HD.Dim {
		return nil, fmt.Errorf("core: MaskDims %d out of range [0,%d)", cfg.MaskDims, cfg.HD.Dim)
	}
	enc, err := newEncoder(Config{HD: cfg.HD, Encoding: cfg.Encoding, Quantizer: quant.Identity{}})
	if err != nil {
		return nil, err
	}
	e := &Edge{cfg: cfg, encoder: enc}
	e.packed, _ = enc.(hdc.PackedEncoder)
	if cfg.MaskDims > 0 {
		src := hrand.New(cfg.MaskSeed)
		e.mask = prune.RandomMask(cfg.HD.Dim, cfg.MaskDims, src.SampleK)
	}
	return e, nil
}

// Encoder exposes the underlying encoder (shared setup with the cloud).
func (e *Edge) Encoder() hdc.Encoder { return e.encoder }

// Prepare returns the obfuscated query hypervector for one input — what
// actually crosses the network. A quantizing edge with an engine-backed
// encoder derives the 1-bit query on the fused bit-sliced path (sign bits
// straight from integer popcounts, bit-identical to encode-then-quantize);
// only the returned wire vector is allocated.
func (e *Edge) Prepare(x []float64) []float64 {
	h := e.prepareUnmasked(x)
	if e.mask != nil {
		e.mask.Apply(h)
	}
	return h
}

// prepareUnmasked encodes (and, when configured, 1-bit quantizes) one
// input into a fresh vector.
func (e *Edge) prepareUnmasked(x []float64) []float64 {
	if !e.cfg.Quantize {
		return e.encoder.Encode(x)
	}
	if e.packed != nil {
		pk := e.getPacked()
		if e.packed.EncodePackedInto(x, encslice.SchemeBipolar, *pk) {
			h := make([]float64, e.cfg.HD.Dim)
			for j, s := range *pk {
				h[j] = float64(s)
			}
			e.scratch.Put(pk)
			return h
		}
		e.scratch.Put(pk)
	}
	return quant.Bipolar{}.Quantize(e.encoder.Encode(x))
}

func (e *Edge) getPacked() *[]int8 {
	if p, ok := e.scratch.Get().(*[]int8); ok {
		return p
	}
	s := make([]int8, e.cfg.HD.Dim)
	return &s
}

// PrepareBatch obfuscates a batch of inputs, spreading Prepare over
// workers (<=0 selects GOMAXPROCS) with rows claimed off an atomic cursor.
func (e *Edge) PrepareBatch(X [][]float64, workers int) [][]float64 {
	out := make([][]float64, len(X))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par.ForEach(len(X), workers, func(i int) {
		out[i] = e.Prepare(X[i])
	})
	return out
}
