package attack

import (
	"testing"

	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/quant"
	"privehd/internal/vecmath"
)

func randomFeatures(seed uint64, n int) []float64 {
	src := hrand.New(seed)
	f := make([]float64, n)
	for i := range f {
		f[i] = src.Float64()
	}
	return f
}

func quantizedTruth(enc *hdc.ScalarEncoder, features []float64) []float64 {
	// What Eq. 10 actually recovers: the level values f(v), not the raw
	// features ("we are retrieving the features f_i, that might or might
	// not be the exact raw elements").
	out := make([]float64, len(features))
	for i, v := range features {
		out[i] = hdc.LevelValue(hdc.LevelIndex(v, enc.Levels()), enc.Levels())
	}
	return out
}

func TestDecodeRecoversScalarEncoding(t *testing.T) {
	// The core privacy breach: at high dimension the decoder recovers the
	// encoded level values almost exactly.
	cfg := hdc.Config{Dim: 10000, Features: 50, Levels: 16, Seed: 1}
	enc, err := hdc.NewScalarEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	features := randomFeatures(2, cfg.Features)
	h := enc.Encode(features)
	recon, err := Decode(enc, h)
	if err != nil {
		t.Fatal(err)
	}
	truth := quantizedTruth(enc, features)
	res := Measure(truth, recon)
	if res.MSE > 0.01 {
		t.Errorf("MSE = %v, want < 0.01 (near-perfect reconstruction)", res.MSE)
	}
	if res.PSNR < 20 {
		t.Errorf("PSNR = %v dB, want > 20 (paper: ≈23.6 for clean encodings)", res.PSNR)
	}
}

func TestDecodeErrorGrowsWithFewerDims(t *testing.T) {
	// Orthogonality cross-talk scales as sqrt(D_iv/D_hv): decoding quality
	// must degrade monotonically (in expectation) as D_hv shrinks.
	features := randomFeatures(3, 40)
	var prev float64 = -1
	for _, dim := range []int{8000, 1000, 200} {
		cfg := hdc.Config{Dim: dim, Features: 40, Levels: 8, Seed: 4}
		enc, err := hdc.NewScalarEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := enc.Encode(features)
		recon, err := Decode(enc, h)
		if err != nil {
			t.Fatal(err)
		}
		mse := vecmath.MSE(quantizedTruth(enc, features), recon)
		if prev >= 0 && mse < prev {
			t.Errorf("MSE at dim %d (%v) should exceed MSE at larger dim (%v)", dim, mse, prev)
		}
		prev = mse
	}
}

func TestDecodeDimensionCheck(t *testing.T) {
	cfg := hdc.Config{Dim: 100, Features: 5, Levels: 4, Seed: 5}
	enc, _ := hdc.NewScalarEncoder(cfg)
	if _, err := Decode(enc, make([]float64, 7)); err == nil {
		t.Error("expected dimension error")
	}
}

func TestQuantizationDegradesReconstruction(t *testing.T) {
	// The paper's inference-privacy claim: bipolar quantization of the
	// query degrades reconstruction (higher MSE) much more than it could
	// ever help the attacker.
	cfg := hdc.Config{Dim: 8000, Features: 60, Levels: 16, Seed: 6}
	enc, err := hdc.NewScalarEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	features := randomFeatures(7, cfg.Features)
	truth := quantizedTruth(enc, features)
	h := enc.Encode(features)

	clean, err := DecodeScaled(enc, h)
	if err != nil {
		t.Fatal(err)
	}
	hq := quant.Bipolar{}.Quantize(h)
	degraded, err := DecodeScaled(enc, hq)
	if err != nil {
		t.Fatal(err)
	}
	mseClean := vecmath.MSE(truth, clean)
	mseQuant := vecmath.MSE(truth, degraded)
	if mseQuant <= mseClean {
		t.Errorf("quantized MSE %v should exceed clean MSE %v", mseQuant, mseClean)
	}
}

func TestMaskingDegradesReconstructionFurther(t *testing.T) {
	cfg := hdc.Config{Dim: 8000, Features: 60, Levels: 16, Seed: 8}
	enc, err := hdc.NewScalarEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	features := randomFeatures(9, cfg.Features)
	truth := quantizedTruth(enc, features)
	h := quant.Bipolar{}.Quantize(enc.Encode(features))

	unmasked, err := DecodeScaled(enc, h)
	if err != nil {
		t.Fatal(err)
	}
	masked := vecmath.Clone(h)
	for j := 0; j < len(masked)/2; j++ {
		masked[j] = 0
	}
	mrecon, err := DecodeScaled(enc, masked)
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.MSE(truth, mrecon) <= vecmath.MSE(truth, unmasked) {
		t.Error("masking should further degrade reconstruction")
	}
}

func TestModelDifferenceRecoversMissingRecord(t *testing.T) {
	// The §III-A membership attack end-to-end: train two models differing
	// by one record; the class-difference must be that record's encoding,
	// and decoding it must reveal the record.
	cfg := hdc.Config{Dim: 10000, Features: 40, Levels: 8, Seed: 13}
	enc, err := hdc.NewScalarEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := hrand.New(14)
	const classes = 3
	var X [][]float64
	var y []int
	for i := 0; i < 30; i++ {
		X = append(X, randomFeatures(uint64(100+i), cfg.Features))
		y = append(y, src.IntN(classes))
	}
	secret := randomFeatures(999, cfg.Features)
	secretClass := 1

	encoded := hdc.EncodeBatch(enc, X, 0)
	m1, err := hdc.Train(encoded, y, classes, cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	m2 := m1.Clone()
	m2.Add(secretClass, enc.Encode(secret))

	diff, class, err := ModelDifference(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if class != secretClass {
		t.Errorf("attack found class %d, want %d", class, secretClass)
	}
	recon, err := Decode(enc, diff)
	if err != nil {
		t.Fatal(err)
	}
	res := Measure(quantizedTruth(enc, secret), recon)
	if res.MSE > 0.01 {
		t.Errorf("recovered record MSE = %v, want near-exact", res.MSE)
	}
}

func TestModelDifferenceIdenticalModels(t *testing.T) {
	m := hdc.NewModel(2, 10)
	if _, _, err := ModelDifference(m, m.Clone()); err == nil {
		t.Error("expected error for identical models")
	}
}

func TestModelDifferenceGeometryCheck(t *testing.T) {
	a := hdc.NewModel(2, 10)
	b := hdc.NewModel(3, 10)
	if _, _, err := ModelDifference(a, b); err == nil {
		t.Error("expected geometry error")
	}
}

func TestDecodeScaledDegenerate(t *testing.T) {
	cfg := hdc.Config{Dim: 500, Features: 10, Levels: 4, Seed: 15}
	enc, _ := hdc.NewScalarEncoder(cfg)
	recon, err := DecodeScaled(enc, make([]float64, cfg.Dim))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range recon {
		if v != 0 {
			t.Errorf("all-zero query should reconstruct to zeros, got %v", v)
		}
	}
}
