package hrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds must produce equal streams")
		}
	}
	c := New(43)
	d := New(42)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	collide := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			collide++
		}
	}
	if collide > 2 {
		t.Errorf("sibling splits collided %d/100 times", collide)
	}
}

func TestSplitReproducible(t *testing.T) {
	// Splitting the same parent state with the same id gives the same child.
	mk := func() uint64 {
		p := New(99)
		return p.Split(5).Uint64()
	}
	if mk() != mk() {
		t.Error("Split is not reproducible")
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(3)
	const n = 100000
	mu, sigma := 2.0, 3.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Normal(mu, sigma)
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mu) > 0.05 {
		t.Errorf("Normal mean = %v, want ≈%v", m, mu)
	}
	if math.Abs(v-sigma*sigma) > 0.3 {
		t.Errorf("Normal variance = %v, want ≈%v", v, sigma*sigma)
	}
}

func TestNormalVec(t *testing.T) {
	s := New(5)
	v := s.NormalVec(1000, 0, 1)
	if len(v) != 1000 {
		t.Fatalf("len = %d", len(v))
	}
	allZero := true
	for _, x := range v {
		if x != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Error("NormalVec returned all zeros")
	}
	z := s.NormalVec(10, 5, 0)
	for _, x := range z {
		if x != 5 {
			t.Errorf("NormalVec sigma=0 produced %v, want 5", x)
		}
	}
}

func TestPerm(t *testing.T) {
	s := New(6)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, i := range p {
		if i < 0 || i >= 50 || seen[i] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[i] = true
	}
}

func TestSampleK(t *testing.T) {
	s := New(7)
	k := s.SampleK(100, 10)
	if len(k) != 10 {
		t.Fatalf("len = %d, want 10", len(k))
	}
	seen := map[int]bool{}
	for _, i := range k {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("SampleK produced duplicate or out-of-range: %v", k)
		}
		seen[i] = true
	}
	if got := s.SampleK(5, 5); len(got) != 5 {
		t.Errorf("SampleK(5,5) len = %d", len(got))
	}
	if got := s.SampleK(5, 0); len(got) != 0 {
		t.Errorf("SampleK(5,0) len = %d", len(got))
	}
}

func TestSampleKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	New(8).SampleK(3, 4)
}

func TestSampleKUniformCoverage(t *testing.T) {
	// Across many draws every index should be selected at least once.
	s := New(9)
	counts := make([]int, 20)
	for trial := 0; trial < 400; trial++ {
		for _, i := range s.SampleK(20, 5) {
			counts[i]++
		}
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("index %d never sampled", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			x := s.Float64()
			if x < 0 || x >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIntNRange(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		if x := s.IntN(7); x < 0 || x >= 7 {
			t.Fatalf("IntN(7) = %d", x)
		}
	}
}
