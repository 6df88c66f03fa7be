package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {-5, 1}, {120, 5},
	} {
		if got := percentile(v, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The highest percentile a report may quote is the one that still has
// ten samples beyond it.
func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9.5 samples beyond the median
		{20, 50, true}, // exactly ten beyond the median
		{39, 50, true}, // p75 would leave 9.75
		{40, 75, true},
		{99, 75, true}, // p90 would leave 9.9
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestSupported(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6, 3) = %v", got)
	}
	if got := ratio(6, 0); got != 0 {
		t.Errorf("ratio(6, 0) = %v, want 0 for a layer that never ran", got)
	}
}
