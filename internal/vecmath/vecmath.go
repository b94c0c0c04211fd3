// Package vecmath provides the dense float64 vector kernels and the
// statistical helpers that the rest of the Prive-HD reproduction is built on.
//
// Hypervectors, class vectors and encoded queries are all plain []float64
// slices; this package keeps the hot loops (dot products, norms, scaled
// accumulation) in one place so the HD, quantization and privacy layers can
// share a single audited implementation.
package vecmath

import "math"

// Dot returns the inner product of a and b. It panics if the lengths differ,
// mirroring the behaviour of slice indexing.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean (ℓ2) norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of a and b, the δ(·,·) of paper
// Eq. 4. It returns 0 when either vector has zero norm, which keeps argmax
// classification well-defined for empty classes.
func Cosine(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Add accumulates src into dst element-wise: dst[i] += src[i].
func Add(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vecmath: Add length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Sub subtracts src from dst element-wise: dst[i] -= src[i].
func Sub(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vecmath: Sub length mismatch")
	}
	for i, v := range src {
		dst[i] -= v
	}
}

// Scale multiplies v in place by alpha.
func Scale(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// ArgMax returns the index of the largest element of v, or -1 for an empty
// slice. Ties resolve to the lowest index, which keeps classification
// deterministic.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// MSE returns the mean squared error between a and b.
func MSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: MSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s / float64(len(a))
}

// PSNR returns the peak signal-to-noise ratio, in dB, between a reference
// signal and its reconstruction, given the peak value of the reference
// domain (e.g. 255 for 8-bit images, 1 for normalized features). It returns
// +Inf for a perfect reconstruction.
func PSNR(ref, recon []float64, peak float64) float64 {
	mse := MSE(ref, recon)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(peak*peak/mse)
}

// AbsRank returns the indices of v ordered by ascending |v[i]|. It is the
// ordering used by model pruning: close-to-zero dimensions come first.
// Ties order by index, so the result is deterministic.
func AbsRank(v []float64) []int {
	return AbsRankInto(v, make([]int, len(v)))
}

// AbsRankInto is AbsRank writing into a caller-provided index buffer of
// len(v) — the allocation-free form for pooled hot paths.
func AbsRankInto(v []float64, idx []int) []int {
	return rankBy(v, idx, func(a, b int) bool {
		av, bv := math.Abs(v[a]), math.Abs(v[b])
		if av != bv {
			return av < bv
		}
		return a < b
	})
}

// Rank returns the indices of v ordered by ascending value, ties ordered by
// index. Rank-based quantizers use it to hit exact symbol occupancies even
// on discrete-valued inputs.
func Rank(v []float64) []int {
	return RankInto(v, make([]int, len(v)))
}

// RankInto is Rank writing into a caller-provided index buffer of len(v).
func RankInto(v []float64, idx []int) []int {
	return rankBy(v, idx, func(a, b int) bool {
		if v[a] != v[b] {
			return v[a] < v[b]
		}
		return a < b
	})
}

// rankBy heapsorts the provided index buffer with the given strict ordering
// on indices. idx must have length len(v).
func rankBy(v []float64, idx []int, lessIdx func(a, b int) bool) []int {
	if len(idx) != len(v) {
		panic("vecmath: rank buffer length mismatch")
	}
	for i := range idx {
		idx[i] = i
	}
	n := len(idx)
	less := func(a, b int) bool { return lessIdx(idx[a], idx[b]) }
	var sift func(root, n int)
	sift = func(root, n int) {
		for {
			child := 2*root + 1
			if child >= n {
				return
			}
			if child+1 < n && less(child, child+1) {
				child++
			}
			if !less(root, child) {
				return
			}
			idx[root], idx[child] = idx[child], idx[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		sift(i, n)
	}
	for i := n - 1; i > 0; i-- {
		idx[0], idx[i] = idx[i], idx[0]
		sift(0, i)
	}
	return idx
}
