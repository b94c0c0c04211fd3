package netlist

import (
	"testing"

	"privehd/internal/hrand"
)

func BenchmarkBuildBipolarApprox617(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = BuildBipolarApprox(617, hrand.New(1))
	}
}

func BenchmarkEvalBipolarApprox617(b *testing.B) {
	nl, _ := BuildBipolarApprox(617, hrand.New(1))
	src := hrand.New(2)
	in := make([]bool, 617)
	for i := range in {
		in[i] = src.IntN(2) == 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nl.Eval(in)
	}
}
