package stats

import (
	"math"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children with different ids should produce different streams.
	parent := NewRand(7)
	c1 := parent.Split(1)
	parent2 := NewRand(7)
	c2 := parent2.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams correlated: %d/64 equal", same)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	r := NewRand(4)
	for i := 0; i < 10000; i++ {
		v := r.BoundedPareto(1.2, 2, 100)
		if v < 2 || v > 100 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
	if got := r.BoundedPareto(1.2, 5, 5); got != 5 {
		t.Errorf("degenerate bounds should return xm, got %v", got)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRand(5)
	const mu = 2.0
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.LogNormal(mu, 0.7)
	}
	med := Median(xs)
	want := math.Exp(mu)
	if math.Abs(med-want)/want > 0.05 {
		t.Errorf("lognormal median %v, want ~%v", med, want)
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(4, 1)
	want := []float64{1, 0.5, 1.0 / 3, 0.25}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Errorf("weight[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{5, 1, 3, 1}
	a := NewAlias(weights)
	if a.N() != 4 {
		t.Fatalf("N = %d", a.N())
	}
	r := NewRand(6)
	counts := make([]int, 4)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[a.Sample(r)]++
	}
	total := 10.0
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestAliasZipfIsMonotone(t *testing.T) {
	a := NewZipfAlias(100, 1.1)
	r := NewRand(8)
	counts := make([]int, 100)
	for i := 0; i < 200000; i++ {
		counts[a.Sample(r)]++
	}
	// Rank 0 must dominate rank 10 must dominate rank 90.
	if !(counts[0] > counts[10] && counts[10] > counts[90]) {
		t.Errorf("zipf ranks not ordered: %d, %d, %d", counts[0], counts[10], counts[90])
	}
}

func TestAliasPanics(t *testing.T) {
	for _, weights := range [][]float64{nil, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAlias(%v) did not panic", weights)
				}
			}()
			NewAlias(weights)
		}()
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRand(10)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency %.4f", got)
	}
}

func TestUint32N(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		if v := r.Uint32N(17); v >= 17 {
			t.Fatalf("Uint32N(17) = %d", v)
		}
	}
}
