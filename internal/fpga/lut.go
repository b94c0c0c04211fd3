// Package fpga models the Prive-HD hardware implementation of §III-D: the
// LUT-6 partial-majority circuit that computes bipolar quantization
// (Fig. 7a), the Eq. 15 LUT cost model, and the Table I platform
// throughput/energy models.
//
// The circuit simulations are bit-exact: they evaluate the same boolean
// functions the FPGA fabric would, so the "<1% accuracy loss" claim of the
// approximate majority can be measured rather than assumed. The netlist
// package builds structural versions of the same circuits and checks
// equivalence against the behavioral models here.
package fpga

import "fmt"

// LUT6 is a 6-input look-up table: the universal logic primitive of the
// paper's target fabric (Xilinx Kintex-7). Bit i of Table holds the output
// for input pattern i (input bit k of the pattern is input line k).
type LUT6 struct {
	Table uint64
}

// Eval returns the LUT output for the given input lines (at most 6;
// missing lines read as false).
func (l LUT6) Eval(inputs ...bool) bool {
	if len(inputs) > 6 {
		panic(fmt.Sprintf("fpga: LUT6 evaluated with %d inputs", len(inputs)))
	}
	var idx uint
	for k, b := range inputs {
		if b {
			idx |= 1 << uint(k)
		}
	}
	return l.Table&(1<<idx) != 0
}

// MajorityLUT6 builds the truth table for an n-input majority gate
// (n ≤ 6): output = 1 when more inputs are 1 than 0. Ties (possible only
// for even n) resolve to tieUp — the paper's "in the case an LUT has equal
// number of 0 and 1 inputs, it breaks the tie randomly (predetermined)".
// Unused high input lines are ignored.
func MajorityLUT6(n int, tieUp bool) LUT6 {
	if n < 1 || n > 6 {
		panic(fmt.Sprintf("fpga: majority width %d out of range [1,6]", n))
	}
	var table uint64
	for pattern := 0; pattern < 64; pattern++ {
		ones := 0
		for k := 0; k < n; k++ {
			if pattern&(1<<k) != 0 {
				ones++
			}
		}
		maj := ones*2 > n || (ones*2 == n && tieUp)
		if maj {
			table |= 1 << uint(pattern)
		}
	}
	return LUT6{Table: table}
}

// FuncLUT6 builds a truth table from an arbitrary boolean function of n
// inputs (n ≤ 6). Used by the netlist builders for adder bit-slices.
func FuncLUT6(n int, f func(inputs []bool) bool) LUT6 {
	if n < 0 || n > 6 {
		panic(fmt.Sprintf("fpga: FuncLUT6 width %d out of range [0,6]", n))
	}
	var table uint64
	in := make([]bool, n)
	for pattern := 0; pattern < 64; pattern++ {
		for k := 0; k < n; k++ {
			in[k] = pattern&(1<<k) != 0
		}
		if f(in) {
			table |= 1 << uint(pattern)
		}
	}
	return LUT6{Table: table}
}
