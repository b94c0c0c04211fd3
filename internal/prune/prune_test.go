package prune

import (
	"math"
	"testing"
	"testing/quick"

	"privehd/internal/hdc"
	"privehd/internal/hrand"
)

func TestMaskBasics(t *testing.T) {
	m := NewMask(5)
	if m.Kept() != 5 || m.Dim() != 5 {
		t.Fatalf("fresh mask: kept=%d dim=%d", m.Kept(), m.Dim())
	}
	m.Drop(2)
	m.Drop(2) // idempotent
	if m.Kept() != 4 {
		t.Errorf("Kept = %d, want 4", m.Kept())
	}
	v := []float64{1, 2, 3, 4, 5}
	m.Apply(v)
	if v[2] != 0 {
		t.Error("Apply did not zero dropped dim")
	}
	if v[0] != 1 || v[4] != 5 {
		t.Error("Apply zeroed kept dims")
	}
}

func TestAppliedCopy(t *testing.T) {
	m := NewMask(3)
	m.Drop(0)
	v := []float64{9, 8, 7}
	got := m.AppliedCopy(v)
	if got[0] != 0 || got[1] != 8 || got[2] != 7 {
		t.Errorf("AppliedCopy = %v", got)
	}
	if v[0] != 9 {
		t.Error("AppliedCopy mutated input")
	}
}

func TestApplyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMask(3).Apply([]float64{1})
}

func TestGlobalMagnitudeMaskDropsSmallest(t *testing.T) {
	m := hdc.NewModel(2, 4)
	m.Add(0, []float64{10, 0.1, -5, 0.2})
	m.Add(1, []float64{-8, 0.1, 6, -0.3})
	// Total magnitudes: [18, 0.2, 11, 0.5] → two smallest are dims 1, 3.
	mask := GlobalMagnitudeMask(m, 2)
	if mask.Keep[1] || mask.Keep[3] {
		t.Errorf("mask kept low-magnitude dims: %v", mask.Keep)
	}
	if !mask.Keep[0] || !mask.Keep[2] {
		t.Errorf("mask dropped high-magnitude dims: %v", mask.Keep)
	}
}

func TestGlobalMagnitudeMaskBounds(t *testing.T) {
	m := hdc.NewModel(1, 3)
	if got := GlobalMagnitudeMask(m, 0).Kept(); got != 3 {
		t.Errorf("drop 0 kept %d", got)
	}
	if got := GlobalMagnitudeMask(m, 3).Kept(); got != 0 {
		t.Errorf("drop all kept %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range drop")
		}
	}()
	GlobalMagnitudeMask(m, 4)
}

func TestDiscriminativeMaskIgnoresCommonMode(t *testing.T) {
	// Dim 0 has a huge shared value (no discrimination); dim 1 is small
	// but fully discriminative. Magnitude ranking keeps dim 0 first;
	// discriminative ranking must keep dim 1.
	m := hdc.NewModel(2, 3)
	m.Add(0, []float64{100, 2, 0.5})
	m.Add(1, []float64{100, -2, 0.4})
	mask := DiscriminativeMask(m, 2)
	if !mask.Keep[1] {
		t.Error("discriminative mask dropped the discriminative dim")
	}
	if mask.Keep[0] {
		t.Error("discriminative mask kept the common-mode dim over signal")
	}
	// Contrast: the paper-literal magnitude mask keeps dim 0.
	mag := GlobalMagnitudeMask(m, 2)
	if !mag.Keep[0] {
		t.Error("magnitude mask should keep the largest dim")
	}
}

func TestDiscriminativeMaskBounds(t *testing.T) {
	m := hdc.NewModel(2, 4)
	if got := DiscriminativeMask(m, 0).Kept(); got != 4 {
		t.Errorf("drop 0 kept %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DiscriminativeMask(m, 5)
}

func TestPruneModel(t *testing.T) {
	m := hdc.NewModel(2, 3)
	m.Add(0, []float64{1, 2, 3})
	m.Add(1, []float64{4, 5, 6})
	mask := NewMask(3)
	mask.Drop(1)
	PruneModel(m, mask)
	if m.Class(0)[1] != 0 || m.Class(1)[1] != 0 {
		t.Error("PruneModel did not zero dropped dim")
	}
	// Norm cache must be refreshed: a query on the pruned dim scores 0 for
	// both classes, so prediction falls to the tie-break.
	s := m.Scores([]float64{0, 1, 0})
	if s[0] != 0 || s[1] != 0 {
		t.Errorf("scores after prune = %v, want zeros", s)
	}
}

func TestRandomMask(t *testing.T) {
	src := hrand.New(1)
	mask := RandomMask(100, 40, src.SampleK)
	if mask.Kept() != 60 {
		t.Errorf("Kept = %d, want 60", mask.Kept())
	}
	// Determinism with same seed.
	src2 := hrand.New(1)
	mask2 := RandomMask(100, 40, src2.SampleK)
	for j := range mask.Keep {
		if mask.Keep[j] != mask2.Keep[j] {
			t.Fatal("RandomMask not deterministic for same source")
		}
	}
}

func TestInformationRetentionEndpoints(t *testing.T) {
	class := []float64{5, -0.1, 3, 0.2}
	query := []float64{1, 1, 1, 1}
	r := InformationRetention(class, query)
	if len(r) != 5 {
		t.Fatalf("len = %d, want 5", len(r))
	}
	if r[0] != 0 {
		t.Errorf("r[0] = %v, want 0", r[0])
	}
	if math.Abs(r[4]-1) > 1e-12 {
		t.Errorf("r[full] = %v, want 1", r[4])
	}
}

func TestInformationRetentionSlowStart(t *testing.T) {
	// The Fig. 3 shape: restoring the close-to-zero half of the dimensions
	// recovers much less than half the information.
	src := hrand.New(2)
	dim := 2000
	// A class vector with realistic spread and an aligned query.
	class := src.NormalVec(dim, 0, 10)
	query := make([]float64, dim)
	for j := range query {
		// Query correlates with the class sign, plus noise.
		query[j] = math.Copysign(1, class[j]) + src.Normal(0, 0.5)
	}
	r := InformationRetention(class, query)
	half := r[dim/2]
	if half > 0.45 {
		t.Errorf("half-restored retention = %v, want well below 0.5 (Fig. 3 shape)", half)
	}
	// Retention should be (weakly) increasing in the aligned case...
	violations := 0
	for k := 1; k <= dim; k++ {
		if r[k] < r[k-1]-1e-9 {
			violations++
		}
	}
	// ...modulo noise-induced dips; allow a small fraction.
	if violations > dim/10 {
		t.Errorf("retention decreased %d/%d times", violations, dim)
	}
}

func TestInformationRetentionProperties(t *testing.T) {
	f := func(seed uint64) bool {
		src := hrand.New(seed)
		n := 10 + src.IntN(100)
		class := src.NormalVec(n, 0, 3)
		query := src.NormalVec(n, 0, 3)
		r := InformationRetention(class, query)
		return len(r) == n+1 && r[0] == 0 && math.Abs(r[n]-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMaskedRetrainKeepsPrunedZero(t *testing.T) {
	src := hrand.New(3)
	const classes, dim, samples = 3, 200, 60
	// Synthetic encoded data: class prototypes plus noise.
	protos := make([][]float64, classes)
	for c := range protos {
		protos[c] = src.NormalVec(dim, 0, 5)
	}
	var encoded [][]float64
	var labels []int
	for i := 0; i < samples; i++ {
		c := i % classes
		h := make([]float64, dim)
		for j := range h {
			h[j] = protos[c][j] + src.Normal(0, 2)
		}
		encoded = append(encoded, h)
		labels = append(labels, c)
	}
	m, err := hdc.Train(encoded, labels, classes, dim)
	if err != nil {
		t.Fatal(err)
	}
	mask := GlobalMagnitudeMask(m, dim/2)
	PruneModel(m, mask)
	accs := MaskedRetrain(m, mask, encoded, labels, encoded, labels, 4)
	if len(accs) == 0 {
		t.Fatal("no epochs ran")
	}
	for l := 0; l < classes; l++ {
		c := m.Class(l)
		for j, keep := range mask.Keep {
			if !keep && c[j] != 0 {
				t.Fatalf("class %d dim %d nonzero (%v) after masked retrain", l, j, c[j])
			}
		}
	}
	if accs[len(accs)-1] < 0.8 {
		t.Errorf("masked retrain accuracy = %v, expected recovery on easy task", accs[len(accs)-1])
	}
}

func TestMaskBatch(t *testing.T) {
	mask := NewMask(2)
	mask.Drop(0)
	got := MaskBatch(mask, [][]float64{{1, 2}, {3, 4}})
	if got[0][0] != 0 || got[0][1] != 2 || got[1][0] != 0 || got[1][1] != 4 {
		t.Errorf("MaskBatch = %v", got)
	}
}
