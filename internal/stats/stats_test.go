package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 2, 3}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-5, 0, 5}, 0},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	Median(in)
	want := []float64{5, 1, 4, 2, 3}
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("Median mutated input: %v", in)
		}
	}
}

func TestMAD(t *testing.T) {
	// Median 3, deviations {2,1,0,1,2} -> MAD 1.
	if got := MAD([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
	if !math.IsNaN(MAD(nil)) {
		t.Error("MAD(nil) should be NaN")
	}
}

func TestMADRobustToOutliers(t *testing.T) {
	base := []float64{1, 2, 3, 4, 5}
	spiked := []float64{1, 2, 3, 4, 1e9}
	if MAD(spiked) != MAD(base) {
		t.Errorf("MAD not robust: %v vs %v", MAD(spiked), MAD(base))
	}
}

func TestRobustSigmaOnNormalData(t *testing.T) {
	// RobustSigma should recover sigma of a normal sample within ~10%.
	r := NewRand(1)
	const sigma = 2.5
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = sigma * r.NormFloat64()
	}
	got := RobustSigma(xs)
	if !almost(got, sigma, 0.25) {
		t.Errorf("RobustSigma = %v, want ~%v", got, sigma)
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 25} {
		for _, p := range []float64{0.01, 0.5, 0.97} {
			var s float64
			for i := 0; i <= n; i++ {
				s += BinomPMF(n, i, p)
			}
			if !almost(s, 1, 1e-9) {
				t.Errorf("sum PMF(n=%d,p=%v) = %v", n, p, s)
			}
		}
	}
}

func TestBinomPMFKnownValues(t *testing.T) {
	// C(4,2) 0.5^4 = 0.375
	if got := BinomPMF(4, 2, 0.5); !almost(got, 0.375, 1e-12) {
		t.Errorf("PMF(4,2,0.5) = %v", got)
	}
	if BinomPMF(4, 5, 0.5) != 0 || BinomPMF(4, -1, 0.5) != 0 {
		t.Error("out-of-range PMF should be 0")
	}
	if BinomPMF(3, 0, 0) != 1 || BinomPMF(3, 3, 1) != 1 {
		t.Error("degenerate p cases wrong")
	}
}

func TestBinomTailGE(t *testing.T) {
	// P[X>=1] = 1-(1-p)^n
	for _, n := range []int{1, 3, 10} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			want := 1 - math.Pow(1-p, float64(n))
			if got := BinomTailGE(n, 1, p); !almost(got, want, 1e-10) {
				t.Errorf("TailGE(n=%d,l=1,p=%v) = %v, want %v", n, p, got, want)
			}
		}
	}
	if BinomTailGE(5, 0, 0.3) != 1 {
		t.Error("l=0 tail must be 1")
	}
	if BinomTailGE(5, 6, 0.3) != 0 {
		t.Error("l>n tail must be 0")
	}
}

func TestVoteBoundsPaperShapes(t *testing.T) {
	// Fig. 7 shape: for l=n, beta increases with n (p=0.97).
	prev := -1.0
	for n := 1; n <= 25; n++ {
		beta := VoteMissUB(n, n, 0.97)
		if beta < prev {
			t.Fatalf("beta(l=n) not increasing at n=%d: %v < %v", n, beta, prev)
		}
		prev = beta
	}
	// Known anchors: beta(l=n=5) = 1-0.97^5.
	if got, want := VoteMissUB(5, 5, 0.97), 1-math.Pow(0.97, 5); !almost(got, want, 1e-12) {
		t.Errorf("beta(5,5) = %v, want %v", got, want)
	}
	// For fixed n, beta has its minimum at l=1.
	for l := 1; l <= 10; l++ {
		if VoteMissUB(10, 1, 0.97) > VoteMissUB(10, l, 0.97)+1e-15 {
			t.Errorf("beta(l=1) should be minimal, l=%d", l)
		}
	}
}

func TestNormalLeakPaperShapes(t *testing.T) {
	// Fig. 8 shape: gamma decreases with l for fixed n, and increases
	// with b for fixed (n, l).
	const k = 1024
	for n := 2; n <= 25; n += 3 {
		prev := math.Inf(1)
		for l := 1; l <= n; l++ {
			g := NormalLeak(n, l, 1, k)
			if g > prev+1e-18 {
				t.Fatalf("gamma not decreasing in l at n=%d l=%d", n, l)
			}
			prev = g
		}
	}
	if NormalLeak(5, 3, 5, k) <= NormalLeak(5, 3, 1, k) {
		t.Error("gamma should grow with the number of anomalous bins b")
	}
	// Anchor: n=l=3, b=1, k=1024 -> (1/1024)^3.
	want := math.Pow(1.0/1024, 3)
	if got := NormalLeak(3, 3, 1, k); !almost(got, want, want*1e-6) {
		t.Errorf("gamma(3,3,1,1024) = %v, want %v", got, want)
	}
}

func TestVoteComplementarity(t *testing.T) {
	// Eq (1) + Eq (2) must sum to 1 for all parameters.
	f := func(n8, l8 uint8, pRaw uint16) bool {
		n := int(n8%25) + 1
		l := int(l8%uint8(n)) + 1
		p := float64(pRaw) / 65535
		return almost(VoteIncludeLB(n, l, p)+VoteMissUB(n, l, p), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
