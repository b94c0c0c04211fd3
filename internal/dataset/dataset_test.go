package dataset

import (
	"testing"
)

func TestGaussianGeometry(t *testing.T) {
	d, err := Gaussian(GaussianSpec{
		Name: "toy", Features: 12, Classes: 3, TrainPer: 5, TestPer: 2,
		Separation: 0.05, Noise: 0.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.TrainX) != 15 || len(d.TestX) != 6 {
		t.Errorf("sizes = %d train, %d test", len(d.TrainX), len(d.TestX))
	}
	for _, x := range d.TrainX {
		for _, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("feature %v out of [0,1]", v)
			}
		}
	}
	counts := d.ClassCounts()
	for c, n := range counts {
		if n != 5 {
			t.Errorf("class %d count = %d, want 5", c, n)
		}
	}
}

func TestGaussianSpecValidation(t *testing.T) {
	bad := []GaussianSpec{
		{Features: 0, Classes: 2, TrainPer: 1, TestPer: 1, Separation: 0.1, Noise: 0.1},
		{Features: 5, Classes: 1, TrainPer: 1, TestPer: 1, Separation: 0.1, Noise: 0.1},
		{Features: 5, Classes: 2, TrainPer: 0, TestPer: 1, Separation: 0.1, Noise: 0.1},
		{Features: 5, Classes: 2, TrainPer: 1, TestPer: 1, Separation: 0, Noise: 0.1},
		{Features: 5, Classes: 2, TrainPer: 1, TestPer: 1, Separation: 0.1, Noise: 0},
	}
	for i, s := range bad {
		if _, err := Gaussian(s); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
}

func TestGaussianDeterminism(t *testing.T) {
	spec := GaussianSpec{
		Name: "det", Features: 8, Classes: 2, TrainPer: 3, TestPer: 2,
		Separation: 0.05, Noise: 0.2, Seed: 7,
	}
	a, err := Gaussian(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Gaussian(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TrainX {
		for j := range a.TrainX[i] {
			if a.TrainX[i][j] != b.TrainX[i][j] {
				t.Fatal("same seed must generate identical data")
			}
		}
	}
}

func TestGaussianClassesDiffer(t *testing.T) {
	d, err := Gaussian(GaussianSpec{
		Name: "sep", Features: 100, Classes: 2, TrainPer: 20, TestPer: 5,
		Separation: 0.1, Noise: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Class means must be distinguishable: mean distance between the two
	// class centroids should well exceed the within-class spread.
	centroid := func(c int) []float64 {
		m := make([]float64, d.Features)
		n := 0
		for i, x := range d.TrainX {
			if d.TrainY[i] != c {
				continue
			}
			for j, v := range x {
				m[j] += v
			}
			n++
		}
		for j := range m {
			m[j] /= float64(n)
		}
		return m
	}
	c0, c1 := centroid(0), centroid(1)
	var dist float64
	for j := range c0 {
		dd := c0[j] - c1[j]
		dist += dd * dd
	}
	if dist < 0.01 {
		t.Errorf("class centroids nearly identical: dist² = %v", dist)
	}
}

func TestMNISTGeometry(t *testing.T) {
	d, err := MNIST(MNISTSpec{Name: "m", TrainPer: 3, TestPer: 2, Jitter: 2, Noise: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Features != 784 || d.Classes != 10 || d.ImageWidth != 28 {
		t.Errorf("geometry = (%d, %d, %d)", d.Features, d.Classes, d.ImageWidth)
	}
	if len(d.TrainX) != 30 || len(d.TestX) != 20 {
		t.Errorf("sizes = %d, %d", len(d.TrainX), len(d.TestX))
	}
}

func TestMNISTDigitsDistinct(t *testing.T) {
	// Noise-free, jitter-free renders of different digits must differ.
	d, err := MNIST(MNISTSpec{Name: "m", TrainPer: 1, TestPer: 1, Jitter: 0, Noise: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(d.TrainX); i++ {
		for j := i + 1; j < len(d.TrainX); j++ {
			if d.TrainY[i] == d.TrainY[j] {
				continue
			}
			same := true
			for k := range d.TrainX[i] {
				if d.TrainX[i][k] != d.TrainX[j][k] {
					same = false
					break
				}
			}
			if same {
				t.Errorf("digits %d and %d render identically", d.TrainY[i], d.TrainY[j])
			}
		}
	}
}

func TestMNISTInkCoverage(t *testing.T) {
	// Each clean digit must have a plausible ink fraction: not blank, not
	// full.
	d, err := MNIST(MNISTSpec{Name: "m", TrainPer: 1, TestPer: 1, Jitter: 0, Noise: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range d.TrainX {
		var ink float64
		for _, v := range x {
			ink += v
		}
		frac := ink / float64(len(x))
		if frac < 0.02 || frac > 0.6 {
			t.Errorf("digit %d ink fraction %v implausible", d.TrainY[i], frac)
		}
	}
}

func TestMNISTSpecValidation(t *testing.T) {
	for i, s := range []MNISTSpec{
		{TrainPer: 0, TestPer: 1},
		{TrainPer: 1, TestPer: 1, Jitter: -1},
		{TrainPer: 1, TestPer: 1, Jitter: 9},
		{TrainPer: 1, TestPer: 1, Noise: -0.1},
	} {
		if _, err := MNIST(s); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
}

func TestSubset(t *testing.T) {
	d, err := Gaussian(GaussianSpec{
		Name: "sub", Features: 4, Classes: 2, TrainPer: 10, TestPer: 2,
		Separation: 0.05, Noise: 0.1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	half := d.Subset(0.5)
	if len(half.TrainX) != 10 {
		t.Errorf("half subset size = %d, want 10", len(half.TrainX))
	}
	counts := half.ClassCounts()
	if counts[0] != 5 || counts[1] != 5 {
		t.Errorf("subset unbalanced: %v", counts)
	}
	// Test split shared.
	if len(half.TestX) != len(d.TestX) {
		t.Error("subset should share the test split")
	}
	// Tiny fraction keeps at least one per class.
	tiny := d.Subset(0.01)
	tc := tiny.ClassCounts()
	if tc[0] < 1 || tc[1] < 1 {
		t.Errorf("tiny subset lost a class: %v", tc)
	}
	// Full fraction returns the dataset unchanged.
	if d.Subset(1.0) != d {
		t.Error("Subset(1) should return the receiver")
	}
}

func TestRegistry(t *testing.T) {
	// Every workload validates and has its paper geometry.
	for _, want := range []struct {
		name              string
		features, classes int
	}{
		{"isolet-s", 617, 26},
		{"face-s", 608, 2},
		{"mnist-s", 784, 10},
	} {
		d, err := ByName(want.name, Small)
		if err != nil {
			t.Fatalf("ByName(%s): %v", want.name, err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s invalid: %v", want.name, err)
		}
		if d.Features != want.features || d.Classes != want.classes {
			t.Errorf("%s geometry = (%d, %d)", want.name, d.Features, d.Classes)
		}
	}
	if _, err := ByName("nope", Small); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d, err := Gaussian(GaussianSpec{
		Name: "v", Features: 4, Classes: 2, TrainPer: 2, TestPer: 1,
		Separation: 0.05, Noise: 0.1, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.TrainY[0] = 99
	if err := d.Validate(); err == nil {
		t.Error("Validate should catch out-of-range label")
	}
	d.TrainY[0] = 0
	d.TrainX[0] = []float64{1}
	if err := d.Validate(); err == nil {
		t.Error("Validate should catch wrong feature count")
	}
}
