package netlist

import (
	"testing"
	"testing/quick"

	"privehd/internal/fpga"
	"privehd/internal/hrand"
)

func TestBasicConstruction(t *testing.T) {
	n := New("and2")
	a := n.AddInput("a")
	b := n.AddInput("b")
	and := fpga.FuncLUT6(2, func(in []bool) bool { return in[0] && in[1] })
	y := n.AddLUT("y", and, a, b)
	n.MarkOutput(y)
	if n.NumInputs() != 2 || n.NumLUTs() != 1 || len(n.outputs) != 1 {
		t.Fatalf("counts = (%d, %d, %d)", n.NumInputs(), n.NumLUTs(), len(n.outputs))
	}
	if n.Depth() != 1 {
		t.Errorf("Depth = %d, want 1", n.Depth())
	}
	tests := []struct {
		in   []bool
		want bool
	}{
		{[]bool{false, false}, false},
		{[]bool{true, false}, false},
		{[]bool{true, true}, true},
	}
	for _, tt := range tests {
		if got := n.Eval(tt.in)[0]; got != tt.want {
			t.Errorf("and(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestConstructionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"input after LUT": func() {
			n := New("x")
			a := n.AddInput("a")
			n.AddLUT("l", fpga.LUT6{}, a)
			n.AddInput("b")
		},
		"forward reference": func() {
			n := New("x")
			a := n.AddInput("a")
			n.AddLUT("l", fpga.LUT6{}, a+5)
		},
		"too many fanins": func() {
			n := New("x")
			ins := n.AddInputs("a", 7)
			n.AddLUT("l", fpga.LUT6{}, ins...)
		},
		"bad output": func() {
			n := New("x")
			n.AddInput("a")
			n.MarkOutput(9)
		},
		"bad eval width": func() {
			n := New("x")
			n.AddInput("a")
			n.Eval([]bool{true, false})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDepthChain(t *testing.T) {
	n := New("chain")
	a := n.AddInput("a")
	buf := fpga.FuncLUT6(1, func(in []bool) bool { return in[0] })
	id := a
	for i := 0; i < 5; i++ {
		id = n.AddLUT("b", buf, id)
	}
	n.MarkOutput(id)
	if n.Depth() != 5 {
		t.Errorf("Depth = %d, want 5", n.Depth())
	}
}

func TestPopcountTree(t *testing.T) {
	// Exercise the internal popcount via BuildBipolarExact across widths,
	// including non-multiples of 6 and tiny sizes.
	for _, div := range []int{1, 2, 3, 5, 6, 7, 11, 12, 13, 36, 37, 61} {
		nl := BuildBipolarExact(div, true)
		src := hrand.New(uint64(div))
		for trial := 0; trial < 50; trial++ {
			in := make([]bool, div)
			for i := range in {
				in[i] = src.IntN(2) == 1
			}
			got := nl.Eval(in)[0]
			want := fpga.ExactMajority(in, true)
			if got != want {
				t.Fatalf("div=%d: netlist %v, behavioral %v (input %v)", div, got, want, in)
			}
		}
	}
}

func TestBipolarExactTieDown(t *testing.T) {
	nl := BuildBipolarExact(4, false)
	tie := []bool{true, true, false, false}
	if nl.Eval(tie)[0] != false {
		t.Error("tieDown circuit should output 0 on a tie")
	}
	nlUp := BuildBipolarExact(4, true)
	if nlUp.Eval(tie)[0] != true {
		t.Error("tieUp circuit should output 1 on a tie")
	}
}

func TestBipolarApproxMatchesBehavioral(t *testing.T) {
	// The structural circuit must agree with the fpga behavioral model on
	// every tested input — they are the same design at two abstraction
	// levels.
	for _, div := range []int{6, 13, 60, 100} {
		nl, behavioral := BuildBipolarApprox(div, hrand.New(uint64(div)*7))
		src := hrand.New(uint64(div) * 13)
		for trial := 0; trial < 100; trial++ {
			in := make([]bool, div)
			for i := range in {
				in[i] = src.IntN(2) == 1
			}
			got := nl.Eval(in)[0]
			want := behavioral.Eval(in)
			if got != want {
				t.Fatalf("div=%d trial=%d: netlist %v, behavioral %v", div, trial, got, want)
			}
		}
	}
}

func TestBipolarApproxEquivalenceProperty(t *testing.T) {
	nl, behavioral := BuildBipolarApprox(63, hrand.New(99))
	f := func(seed uint64) bool {
		src := hrand.New(seed)
		in := make([]bool, 63)
		for i := range in {
			in[i] = src.IntN(2) == 1
		}
		return nl.Eval(in)[0] == behavioral.Eval(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLUTCountsVsEq15(t *testing.T) {
	// The measured structural LUT counts must land in the same band as the
	// paper's analytic estimates: the approximate circuit well below the
	// exact one, with the ratio near the claimed 70.8% saving.
	for _, div := range []int{120, 360, 617} {
		exact := BuildBipolarExact(div, true).NumLUTs()
		approx, _ := BuildBipolarApprox(div, hrand.New(uint64(div)))
		saving := 1 - float64(approx.NumLUTs())/float64(exact)
		if saving < 0.55 || saving > 0.85 {
			t.Errorf("div=%d: measured saving %.3f (approx %d, exact %d LUTs), want ≈0.71",
				div, saving, approx.NumLUTs(), exact)
		}
		// Both counts should be within 2× of the Eq. 15 models.
		eApprox := fpga.BipolarApproxLUTs(div)
		eExact := fpga.BipolarExactLUTs(div)
		if r := float64(approx.NumLUTs()) / eApprox; r < 0.5 || r > 2 {
			t.Errorf("div=%d: approx measured %d vs Eq.15 %.0f", div, approx.NumLUTs(), eApprox)
		}
		if r := float64(exact) / eExact; r < 0.5 || r > 2 {
			t.Errorf("div=%d: exact measured %d vs model %.0f", div, exact, eExact)
		}
	}
}

func TestApproxShallowerThanExact(t *testing.T) {
	// The majority first stage compresses 6× before counting, so the
	// approximate circuit is also shallower — the latency side of Fig. 7a.
	exact := BuildBipolarExact(360, true)
	approx, _ := BuildBipolarApprox(360, hrand.New(1))
	if approx.Depth() >= exact.Depth() {
		t.Errorf("approx depth %d should be below exact depth %d", approx.Depth(), exact.Depth())
	}
}

func TestVisitOrder(t *testing.T) {
	n := New("v")
	a := n.AddInput("a")
	b := n.AddInput("b")
	xor := fpga.FuncLUT6(2, func(in []bool) bool { return in[0] != in[1] })
	y := n.AddLUT("y", xor, a, b)
	n.MarkOutput(y)
	var inputs, luts, outputs int
	n.Visit(
		func(i int, name string) { inputs++ },
		func(i int, name string, table uint64, fanin []NodeID) {
			luts++
			if len(fanin) != 2 {
				t.Errorf("fanin = %v", fanin)
			}
		},
		func(i int, id NodeID) {
			outputs++
			if id != y {
				t.Errorf("output id = %d, want %d", id, y)
			}
		},
	)
	if inputs != 2 || luts != 1 || outputs != 1 {
		t.Errorf("visit counts = (%d, %d, %d)", inputs, luts, outputs)
	}
}
