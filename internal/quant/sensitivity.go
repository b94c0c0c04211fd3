package quant

import (
	"math"

	"privehd/internal/vecmath"
)

// The sensitivity of HD training is the norm of a single encoded
// hypervector: adjacent datasets differ in one input, so the trained models
// differ by exactly that input's encoding bundled into one class (paper
// §III-B).

// RawL2Sensitivity returns the ℓ2 sensitivity of un-quantized Eq. 2
// encoding, paper Eq. 12:
//
//	∆f = ‖~H‖₂ = sqrt(D_hv · D_iv)
//
// from the chi-square mean of the squared dimensions.
func RawL2Sensitivity(dhv, div int) float64 {
	return math.Sqrt(float64(dhv) * float64(div))
}

// AnalyticL2Sensitivity returns the ℓ2 sensitivity of a quantized encoding,
// paper Eq. 14:
//
//	∆f = ( Σ_{k∈|q|} p_k · D_hv · k² )^{1/2}
//
// After quantization the input feature count D_iv no longer matters — only
// the alphabet occupancy does.
func AnalyticL2Sensitivity(q Quantizer, dhv int) float64 {
	alphabet := q.Alphabet()
	probs := q.Probabilities()
	if alphabet == nil {
		// Identity: fall back to the unquantized bound is impossible
		// without D_iv; report NaN so misuse is loud.
		return math.NaN()
	}
	var s float64
	for i, k := range alphabet {
		s += probs[i] * float64(dhv) * k * k
	}
	return math.Sqrt(s)
}

// EmpiricalL2Sensitivity returns the maximum ℓ2 norm across a batch of
// (possibly quantized) encodings — the measured counterpart of Eq. 12/14
// used to validate the analytic bounds.
func EmpiricalL2Sensitivity(encodings [][]float64) float64 {
	var worst float64
	for _, h := range encodings {
		if n := vecmath.Norm2(h); n > worst {
			worst = n
		}
	}
	return worst
}
