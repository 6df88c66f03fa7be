package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks; v need not be sorted and is not
// modified. An empty sample reports 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentileLadder lists the percentiles a report may quote, ascending.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is the number of samples that must lie beyond a percentile
// for it to be quoted (the choosing-metrics rule).
const minBeyond = 10

// highestSupported returns the highest ladder percentile that still has
// at least minBeyond of n samples beyond it, and false when not even the
// median does (n < 2*minBeyond).
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		// The small epsilon keeps 100 samples at p90 (exactly ten
		// beyond) from being lost to float rounding of 1-p/100.
		if float64(n)*(100-p)/100+1e-9 >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// ratio is a/b with 0 for an empty denominator, so layers a workload
// never executes report 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
