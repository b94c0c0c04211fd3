package hdc

import (
	"privehd/internal/bitvec"
	"privehd/internal/hrand"
)

// ItemMemory holds the D_iv random bipolar base (location) hypervectors
// ~B_k of Eq. 2, one per input feature position. Bases are generated
// independently, which makes them near-orthogonal at HD dimensions — the
// property both the encoding and the reconstruction attack rely on.
type ItemMemory struct {
	dim    int
	packed []*bitvec.Vector
	floats [][]float64 // unpacked view, materialized lazily per base
}

// NewItemMemory generates an item memory with `features` bases of dimension
// dim from the given random source.
func NewItemMemory(src *hrand.Source, features, dim int) *ItemMemory {
	m := &ItemMemory{
		dim:    dim,
		packed: make([]*bitvec.Vector, features),
		floats: make([][]float64, features),
	}
	for k := range m.packed {
		v := bitvec.New(dim)
		for j := 0; j < dim; j++ {
			if src.Uint64()&1 == 1 {
				v.Set(j, true)
			}
		}
		m.packed[k] = v
	}
	return m
}

// Len returns the number of bases (D_iv).
func (m *ItemMemory) Len() int { return len(m.packed) }

// Packed returns base k in packed form. The returned vector is shared and
// must not be modified.
func (m *ItemMemory) Packed(k int) *bitvec.Vector { return m.packed[k] }

// Floats returns base k as a ±1 float slice, materializing and caching it on
// first use. The returned slice is shared and must not be modified.
func (m *ItemMemory) Floats(k int) []float64 {
	if m.floats[k] == nil {
		m.floats[k] = m.packed[k].Floats()
	}
	return m.floats[k]
}

// LevelMemory holds the ℓ_iv level hypervectors ~L of Eq. 2b. Per the
// paper, ~L_0 is random, consecutive levels differ by D_hv/(2·ℓ_iv) flipped
// bits, and the chain ends ~L_0 and ~L_{ℓ−1} are orthogonal.
//
// Implementation choice: the flipped positions are disjoint across steps
// (drawn from one random permutation), so the total flip count from first to
// last level is exactly (ℓ−1)·⌊D/(2ℓ)⌋ distinct bits ≈ D/2, making the end
// points orthogonal by construction rather than only in expectation. The
// paper's "randomly chosen" wording permits either; disjoint flips give the
// cleaner invariant (and are what reference HD implementations do).
type LevelMemory struct {
	dim      int
	perStep  int
	packed   []*bitvec.Vector
	flipPlan [][]int // flipPlan[k] = positions flipped between level k and k+1
}

// NewLevelMemory generates a level memory with `levels` vectors of dimension
// dim from the given random source.
func NewLevelMemory(src *hrand.Source, levels, dim int) *LevelMemory {
	m := &LevelMemory{
		dim:      dim,
		perStep:  dim / (2 * levels),
		packed:   make([]*bitvec.Vector, levels),
		flipPlan: make([][]int, levels-1),
	}
	base := bitvec.New(dim)
	for j := 0; j < dim; j++ {
		if src.Uint64()&1 == 1 {
			base.Set(j, true)
		}
	}
	m.packed[0] = base
	perm := src.Perm(dim)
	pos := 0
	for k := 1; k < levels; k++ {
		next := m.packed[k-1].Clone()
		flips := make([]int, 0, m.perStep)
		for i := 0; i < m.perStep; i++ {
			j := perm[pos%dim]
			pos++
			next.Flip(j)
			flips = append(flips, j)
		}
		m.flipPlan[k-1] = flips
		m.packed[k] = next
	}
	return m
}

// Packed returns level k in packed form. The returned vector is shared and
// must not be modified.
func (m *LevelMemory) Packed(k int) *bitvec.Vector { return m.packed[k] }
