package dataset

import "fmt"

// Scale selects how much data the standard workloads generate. Unit tests
// use Small; the experiment harness and benchmarks use Full.
type Scale int

const (
	// Small generates quick datasets for unit and smoke tests.
	Small Scale = iota
	// Full generates the experiment-scale datasets used to regenerate the
	// paper's figures.
	Full
)

// The per-class sample counts at each scale. The paper's corpora are larger
// (ISOLET 6238 train / MNIST 60k), but HD class vectors saturate well below
// that; these sizes reproduce the figures' shapes at tractable runtime, and
// the Fig. 8d sweep explores the size axis explicitly.
func counts(s Scale, fullTrain, fullTest int) (train, test int) {
	if s == Full {
		return fullTrain, fullTest
	}
	return max(fullTrain/40, 4), max(fullTest/10, 2)
}

// ISOLETS generates the ISOLET stand-in: 617 features, 26 classes.
// Separation/noise are calibrated so the non-private full-precision HD
// baseline lands in the paper's low-90s% band at D_hv = 10,000.
func ISOLETS(s Scale) (*Dataset, error) {
	train, test := counts(s, 240, 20)
	return Gaussian(GaussianSpec{
		Name:            "isolet-s",
		Features:        617,
		Classes:         26,
		TrainPer:        train,
		TestPer:         test,
		Separation:      0.15,
		Noise:           0.25,
		ActiveFraction:  0.25,
		ClusterSize:     2,
		IntraSeparation: 0.075,
		Seed:            0x150137,
	})
}

// FACES generates the Caltech web-faces stand-in: 608 features, binary.
func FACES(s Scale) (*Dataset, error) {
	train, test := counts(s, 3000, 150)
	return Gaussian(GaussianSpec{
		Name:           "face-s",
		Features:       608,
		Classes:        2,
		TrainPer:       train,
		TestPer:        test,
		Separation:     0.05,
		Noise:          0.20,
		ActiveFraction: 0.3,
		Seed:           0xFACE5,
	})
}

// MNISTS generates the MNIST stand-in: 28×28 procedural digit images.
func MNISTS(s Scale) (*Dataset, error) {
	train, test := counts(s, 600, 50)
	return MNIST(MNISTSpec{
		Name:     "mnist-s",
		TrainPer: train,
		TestPer:  test,
		Jitter:   3,
		Noise:    0.24,
		Seed:     0x31157,
	})
}

// ByName returns the named standard workload ("isolet-s", "face-s",
// "mnist-s") at the given scale.
func ByName(name string, s Scale) (*Dataset, error) {
	switch name {
	case "isolet-s":
		return ISOLETS(s)
	case "face-s":
		return FACES(s)
	case "mnist-s":
		return MNISTS(s)
	}
	return nil, fmt.Errorf("dataset: unknown workload %q (valid: isolet-s, face-s, mnist-s)", name)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
