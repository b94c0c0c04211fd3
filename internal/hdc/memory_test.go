package hdc

import (
	"math"
	"testing"

	"privehd/internal/bitvec"
	"privehd/internal/hrand"
)

func TestItemMemoryGeometry(t *testing.T) {
	m := NewItemMemory(hrand.New(1), 20, 1000)
	if m.Len() != 20 {
		t.Fatalf("Len = %d, want 20", m.Len())
	}
	if m.dim != 1000 {
		t.Fatalf("Dim = %d, want 1000", m.dim)
	}
	for k := 0; k < 20; k++ {
		if got := m.Packed(k).Len(); got != 1000 {
			t.Fatalf("base %d has dim %d", k, got)
		}
	}
}

func TestItemMemoryOrthogonality(t *testing.T) {
	// Pairwise cosine of independent bipolar bases is ~N(0, 1/D); check a
	// 5-sigma bound across all pairs of a small memory.
	const d = 4000
	m := NewItemMemory(hrand.New(2), 10, d)
	bound := 5 / math.Sqrt(d)
	for a := 0; a < m.Len(); a++ {
		for b := a + 1; b < m.Len(); b++ {
			cos := bitvec.Cosine(m.Packed(a), m.Packed(b))
			if math.Abs(cos) > bound {
				t.Errorf("bases %d,%d cosine %v exceeds bound %v", a, b, cos, bound)
			}
		}
	}
}

func TestItemMemoryFloatsMatchPacked(t *testing.T) {
	m := NewItemMemory(hrand.New(3), 5, 200)
	for k := 0; k < 5; k++ {
		f := m.Floats(k)
		p := m.Packed(k)
		for j := range f {
			if f[j] != p.Sign(j) {
				t.Fatalf("base %d floats/packed disagree at %d", k, j)
			}
		}
		// Cached: same backing array on second call.
		if &f[0] != &m.Floats(k)[0] {
			t.Error("Floats should cache")
		}
	}
}

func TestItemMemoryDeterminism(t *testing.T) {
	a := NewItemMemory(hrand.New(7), 8, 512)
	b := NewItemMemory(hrand.New(7), 8, 512)
	for k := 0; k < 8; k++ {
		if bitvec.Hamming(a.Packed(k), b.Packed(k)) != 0 {
			t.Fatal("same seed must give identical item memories")
		}
	}
}

func TestLevelMemoryFlipCounts(t *testing.T) {
	const d, levels = 1000, 10
	m := NewLevelMemory(hrand.New(4), levels, d)
	if len(m.packed) != levels {
		t.Fatalf("Len = %d", len(m.packed))
	}
	want := d / (2 * levels)
	if m.perStep != want {
		t.Fatalf("FlipsPerStep = %d, want %d", m.perStep, want)
	}
	for k := 1; k < levels; k++ {
		h := bitvec.Hamming(m.Packed(k-1), m.Packed(k))
		if h != want {
			t.Errorf("levels %d→%d hamming = %d, want %d", k-1, k, h, want)
		}
	}
}

func TestLevelMemoryEndsOrthogonal(t *testing.T) {
	// With disjoint flips, ends differ in exactly (ℓ−1)·⌊D/2ℓ⌋ bits ≈ D/2,
	// so their dot is ≈ 0 (paper: "~L_0 and ~L_{ℓ−1} are entirely
	// orthogonal").
	const d, levels = 10000, 100
	m := NewLevelMemory(hrand.New(5), levels, d)
	flipped := (levels - 1) * (d / (2 * levels))
	first, last := m.Packed(0), m.Packed(levels-1)
	if got := bitvec.Hamming(first, last); got != flipped {
		t.Fatalf("end-to-end hamming = %d, want %d", got, flipped)
	}
	cos := bitvec.Cosine(first, last)
	if math.Abs(cos) > 0.05 {
		t.Errorf("end levels cosine = %v, want ≈0", cos)
	}
}

func TestLevelMemoryMonotoneSimilarity(t *testing.T) {
	// Closer levels must stay more similar: cos(L0, Lk) decreases in k.
	const d, levels = 8000, 20
	m := NewLevelMemory(hrand.New(6), levels, d)
	prev := 1.1
	for k := 0; k < levels; k++ {
		cos := bitvec.Cosine(m.Packed(0), m.Packed(k))
		if cos > prev+1e-9 {
			t.Errorf("similarity not monotone at level %d: %v > %v", k, cos, prev)
		}
		prev = cos
	}
}

func TestLevelMemoryDeterminism(t *testing.T) {
	a := NewLevelMemory(hrand.New(8), 16, 640)
	b := NewLevelMemory(hrand.New(8), 16, 640)
	for k := 0; k < 16; k++ {
		if bitvec.Hamming(a.Packed(k), b.Packed(k)) != 0 {
			t.Fatal("same seed must give identical level memories")
		}
	}
}
