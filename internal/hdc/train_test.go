package hdc

import (
	"testing"

	"privehd/internal/hrand"
)

// syntheticTask builds a small separable classification problem: each class
// has a prototype feature vector and samples are noisy copies.
func syntheticTask(t *testing.T, seed uint64, classes, features, perClass int, noise float64) (X [][]float64, y []int) {
	t.Helper()
	src := hrand.New(seed)
	protos := make([][]float64, classes)
	for c := range protos {
		protos[c] = make([]float64, features)
		for i := range protos[c] {
			protos[c][i] = src.Float64()
		}
	}
	for c := 0; c < classes; c++ {
		for s := 0; s < perClass; s++ {
			x := make([]float64, features)
			for i := range x {
				x[i] = protos[c][i] + src.Normal(0, noise)
				if x[i] < 0 {
					x[i] = 0
				}
				if x[i] > 1 {
					x[i] = 1
				}
			}
			X = append(X, x)
			y = append(y, c)
		}
	}
	return X, y
}

func TestTrainAndEvaluateSeparable(t *testing.T) {
	cfg := Config{Dim: 2000, Features: 40, Levels: 16, Seed: 60}
	enc := mustLevel(t, cfg)
	X, y := syntheticTask(t, 61, 4, cfg.Features, 30, 0.05)
	encoded := EncodeBatch(enc, X, 0)
	m, err := Train(encoded, y, 4, cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	acc := Evaluate(m, encoded, y)
	if acc < 0.95 {
		t.Errorf("training accuracy %v too low for separable task", acc)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train([][]float64{{1}}, []int{0, 1}, 2, 1); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := Train([][]float64{{1}}, []int{5}, 2, 1); err == nil {
		t.Error("expected error for out-of-range label")
	}
	if _, err := Train([][]float64{{1, 2}}, []int{0}, 2, 1); err == nil {
		t.Error("expected error for wrong encoding dim")
	}
}

func TestRetrainImprovesNoisyTask(t *testing.T) {
	// On a harder task one-shot bundling mispredicts some training samples;
	// Eq. 5 retraining must not reduce training accuracy below the one-shot
	// model and typically improves it (the Fig. 4 behaviour).
	cfg := Config{Dim: 1000, Features: 30, Levels: 8, Seed: 62}
	enc := mustLevel(t, cfg)
	X, y := syntheticTask(t, 63, 6, cfg.Features, 40, 0.25)
	encoded := EncodeBatch(enc, X, 0)
	m, err := Train(encoded, y, 6, cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	before := Evaluate(m, encoded, y)
	accs := Retrain(m, encoded, y, encoded, y, 5)
	if len(accs) == 0 {
		t.Fatal("Retrain returned no epochs")
	}
	best := accs[0]
	for _, a := range accs {
		if a > best {
			best = a
		}
	}
	if best < before-0.02 {
		t.Errorf("retraining degraded accuracy: before %v, best %v", before, best)
	}
}

func TestRetrainEpochCountsUpdates(t *testing.T) {
	m := NewModel(2, 2)
	m.Add(0, []float64{1, 0})
	m.Add(1, []float64{0, 1})
	// One sample predicted correctly, one wrongly labelled on purpose.
	encoded := [][]float64{{1, 0}, {1, 0}}
	labels := []int{0, 1}
	updates := RetrainEpoch(m, encoded, labels)
	if updates != 1 {
		t.Errorf("updates = %d, want 1", updates)
	}
}

func TestRetrainStopsWhenConverged(t *testing.T) {
	m := NewModel(2, 2)
	m.Add(0, []float64{1, 0})
	m.Add(1, []float64{0, 1})
	encoded := [][]float64{{1, 0}, {0, 1}}
	labels := []int{0, 1}
	accs := Retrain(m, encoded, labels, encoded, labels, 10)
	if len(accs) != 1 {
		t.Errorf("converged retraining ran %d epochs, want 1", len(accs))
	}
	if accs[0] != 1 {
		t.Errorf("accuracy = %v, want 1", accs[0])
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := NewModel(2, 2)
	if got := Evaluate(m, nil, nil); got != 0 {
		t.Errorf("Evaluate(empty) = %v, want 0", got)
	}
}

func TestEncoderAgreement(t *testing.T) {
	// Both paper encodings should solve the same separable task; their
	// accuracies are expected to be comparable (the paper treats them as
	// interchangeable for accuracy, differing in hardware cost).
	X, y := syntheticTask(t, 64, 4, 30, 25, 0.08)
	for name, mk := range map[string]func() Encoder{
		"scalar": func() Encoder { return mustScalar(t, Config{Dim: 2000, Features: 30, Levels: 16, Seed: 65}) },
		"level":  func() Encoder { return mustLevel(t, Config{Dim: 2000, Features: 30, Levels: 16, Seed: 65}) },
	} {
		enc := mk()
		encoded := EncodeBatch(enc, X, 0)
		m, err := Train(encoded, y, 4, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if acc := Evaluate(m, encoded, y); acc < 0.9 {
			t.Errorf("%s encoder accuracy %v too low", name, acc)
		}
	}
}
