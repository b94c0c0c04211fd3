package fpga

import (
	"math"
	"testing"

	"privehd/internal/hrand"
)

func TestMajorityLUT6TruthTable(t *testing.T) {
	lut := MajorityLUT6(3, false)
	tests := []struct {
		in   []bool
		want bool
	}{
		{[]bool{false, false, false}, false},
		{[]bool{true, false, false}, false},
		{[]bool{true, true, false}, true},
		{[]bool{true, true, true}, true},
	}
	for _, tt := range tests {
		if got := lut.Eval(tt.in...); got != tt.want {
			t.Errorf("maj3(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestMajorityLUT6Ties(t *testing.T) {
	up := MajorityLUT6(6, true)
	down := MajorityLUT6(6, false)
	tie := []bool{true, true, true, false, false, false}
	if !up.Eval(tie...) {
		t.Error("tieUp LUT should output 1 on a tie")
	}
	if down.Eval(tie...) {
		t.Error("tieDown LUT should output 0 on a tie")
	}
}

func TestMajorityLUT6AllWidths(t *testing.T) {
	for n := 1; n <= 6; n++ {
		lut := MajorityLUT6(n, true)
		for pattern := 0; pattern < 1<<n; pattern++ {
			in := make([]bool, n)
			ones := 0
			for k := 0; k < n; k++ {
				in[k] = pattern&(1<<k) != 0
				if in[k] {
					ones++
				}
			}
			want := 2*ones >= n
			if got := lut.Eval(in...); got != want {
				t.Fatalf("maj%d(%0*b) = %v, want %v", n, n, pattern, got, want)
			}
		}
	}
}

func TestMajorityLUT6Panics(t *testing.T) {
	for _, n := range []int{0, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MajorityLUT6(%d) should panic", n)
				}
			}()
			MajorityLUT6(n, true)
		}()
	}
}

func TestFuncLUT6(t *testing.T) {
	xor := FuncLUT6(2, func(in []bool) bool { return in[0] != in[1] })
	if xor.Eval(true, false) != true || xor.Eval(true, true) != false {
		t.Error("FuncLUT6 xor wrong")
	}
}

func TestLUT6EvalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 7 inputs")
		}
	}()
	LUT6{}.Eval(true, true, true, true, true, true, true)
}

func TestBipolarCircuitMatchesExactOnClearMajorities(t *testing.T) {
	// When the input is strongly unbalanced the approximation must agree
	// with the exact majority (every group leans the same way).
	src := hrand.New(1)
	c := NewBipolarCircuit(60, src)
	allTrue := make([]bool, 60)
	for i := range allTrue {
		allTrue[i] = true
	}
	if !c.Eval(allTrue) {
		t.Error("all-ones input must evaluate true")
	}
	if c.Eval(make([]bool, 60)) {
		t.Error("all-zeros input must evaluate false")
	}
}

func TestBipolarCircuitGroupCount(t *testing.T) {
	src := hrand.New(2)
	tests := []struct{ div, groups int }{
		{6, 1}, {7, 2}, {12, 2}, {13, 3}, {617, 103},
	}
	for _, tt := range tests {
		c := NewBipolarCircuit(tt.div, src)
		if got := len(c.groupLUTs); got != tt.groups {
			t.Errorf("div=%d groups=%d, want %d", tt.div, got, tt.groups)
		}
		if c.div != tt.div {
			t.Errorf("Inputs = %d", c.div)
		}
	}
}

func TestBipolarCircuitAgreementRate(t *testing.T) {
	// The approximation flips only near-tie dimensions; on random ±1
	// inputs the agreement with exact majority should be high (the paper
	// reports <1% accuracy impact downstream; raw bit agreement is looser
	// but must still be strong).
	src := hrand.New(3)
	const div, trials = 63, 4000 // odd: no exact ties
	c := NewBipolarCircuit(div, src)
	agree := 0
	bits := make([]bool, div)
	for trial := 0; trial < trials; trial++ {
		for i := range bits {
			bits[i] = src.IntN(2) == 1
		}
		if c.Eval(bits) == ExactMajority(bits, true) {
			agree++
		}
	}
	rate := float64(agree) / trials
	if rate < 0.75 {
		t.Errorf("approximate majority agreement = %v, want ≥ 0.75", rate)
	}
}

func TestBipolarCircuitBiasedInputsAgreeBetter(t *testing.T) {
	// With a 60/40 input bias (as real encodings have away from the
	// decision boundary) agreement should improve markedly vs 50/50.
	src := hrand.New(4)
	const div, trials = 60, 4000
	c := NewBipolarCircuit(div, src)
	rate := func(p float64) float64 {
		agree := 0
		bits := make([]bool, div)
		for trial := 0; trial < trials; trial++ {
			for i := range bits {
				bits[i] = src.Float64() < p
			}
			if c.Eval(bits) == ExactMajority(bits, true) {
				agree++
			}
		}
		return float64(agree) / trials
	}
	balanced := rate(0.5)
	biased := rate(0.6)
	if biased <= balanced {
		t.Errorf("biased agreement %v should exceed balanced %v", biased, balanced)
	}
	if biased < 0.9 {
		t.Errorf("biased agreement %v too low", biased)
	}
}

func TestExactMajority(t *testing.T) {
	if ExactMajority([]bool{true, true, false}, false) != true {
		t.Error("2/3 majority should be true")
	}
	if ExactMajority([]bool{true, false}, false) != false {
		t.Error("tie with tieDown should be false")
	}
	if ExactMajority([]bool{true, false}, true) != true {
		t.Error("tie with tieUp should be true")
	}
}

func TestEq15CostModel(t *testing.T) {
	// Paper: ≈7/18·d_iv vs 4/3·d_iv exact — "70.8% less".
	if got := 1 - BipolarApproxLUTs(1)/BipolarExactLUTs(1); math.Abs(got-0.708) > 0.001 {
		t.Errorf("bipolar savings = %v, want ≈0.708", got)
	}
	// ISOLET: 7/18·617 ≈ 240.
	if got := BipolarApproxLUTs(617); math.Abs(got-239.9) > 0.2 {
		t.Errorf("approx LUTs(617) = %v", got)
	}
}

func TestPlatformModelsReproduceTableIShape(t *testing.T) {
	ws := PaperWorkloads()
	pi, gpu, f := RaspberryPi(), GPU(), PriveHDFPGA()
	for _, w := range ws {
		tpi, tgpu, tf := pi.Throughput(w), gpu.Throughput(w), f.Throughput(w)
		if !(tf > tgpu && tgpu > tpi) {
			t.Errorf("%s: throughput ordering broken: fpga %v, gpu %v, pi %v", w.Name, tf, tgpu, tpi)
		}
		epi, egpu, ef := pi.EnergyPerInput(w), gpu.EnergyPerInput(w), f.EnergyPerInput(w)
		if !(ef < egpu && egpu < epi) {
			t.Errorf("%s: energy ordering broken: fpga %v, gpu %v, pi %v", w.Name, ef, egpu, epi)
		}
	}
	// Paper headline ratios: FPGA ≈ 105,067× Pi and 15.8× GPU throughput.
	// The single-constant-set models must land within ~4× of those.
	gmPi := GeomeanSpeedup(f, pi, ws)
	gmGPU := GeomeanSpeedup(f, gpu, ws)
	if gmPi < 3e4 || gmPi > 4e5 {
		t.Errorf("FPGA/Pi geomean speedup = %v, want ~1e5", gmPi)
	}
	if gmGPU < 4 || gmGPU > 64 {
		t.Errorf("FPGA/GPU geomean speedup = %v, want ~16", gmGPU)
	}
}

func TestPlatformModelsWithinBandOfPaper(t *testing.T) {
	// Each modeled throughput should be within an order of magnitude of
	// the published Table I value (the models use one constant set; the
	// paper's per-benchmark implementations vary more).
	ws := PaperWorkloads()
	paper := PaperResults()
	plats := Platforms()
	for i, w := range ws {
		for p, plat := range plats {
			model := plat.Throughput(w)
			published := paper[i].Throughput[p]
			ratio := model / published
			if ratio < 0.1 || ratio > 10 {
				t.Errorf("%s on %s: model %v vs paper %v (ratio %v)",
					w.Name, plat.Name, model, published, ratio)
			}
		}
	}
}

func TestWorkloadOps(t *testing.T) {
	w := Workload{Features: 10, Dim: 100, Classes: 2}
	if got := w.Ops(); got != 10*100+2*100 {
		t.Errorf("Ops = %v", got)
	}
}

func TestEnergyIsPowerOverThroughput(t *testing.T) {
	p := GPU()
	w := PaperWorkloads()[0]
	want := p.PowerWatts / p.Throughput(w)
	if got := p.EnergyPerInput(w); math.Abs(got-want) > 1e-15 {
		t.Errorf("energy = %v, want %v", got, want)
	}
}
