package fpga

// Eq. 15 and the surrounding §III-D discussion: LUT-6 budgets for reducing
// the d_iv partial products of one encoded dimension.

// BipolarApproxLUTs returns the paper's Eq. 15 estimate for the
// approximate (first-stage majority) bipolar reduction:
//
//	n_LUT6 = d_iv/6 + (1/6)·Σ_{i=1..log d_iv} (d_iv/3 · i/2^{i−1}) ≈ 7/18·d_iv
//
// evaluated with the closed-form limit Σ i/2^{i−1} = 4, exactly as the
// paper's "≈ 7/18 d_iv" uses it.
func BipolarApproxLUTs(div int) float64 {
	return 7.0 / 18.0 * float64(div)
}

// BipolarExactLUTs returns the paper's cost for the exact adder-tree
// implementation, 4/3·d_iv.
func BipolarExactLUTs(div int) float64 {
	return 4.0 / 3.0 * float64(div)
}
