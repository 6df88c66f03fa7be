package stats

import (
	"math"
)

// Backbone traffic is dominated by heavy-tailed popularity: a few services
// (ports) and a few hosts carry most flows, with a long tail of rare
// values, while flow sizes in packets/bytes follow heavy-tailed laws. The
// samplers here reproduce those marginal distributions for the synthetic
// SWITCH-like trace (DESIGN.md §3).

// LogNormal samples exp(mu + sigma*Z).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*r.NormFloat64()))
}

// BoundedPareto samples a Pareto(alpha, xm) truncated to [xm, max] by
// resampling via inverse CDF of the truncated law (no rejection loop).
func (r *Rand) BoundedPareto(alpha, xm, max float64) float64 {
	if max <= xm {
		return xm
	}
	// Inverse CDF of the bounded Pareto.
	u := r.Float64()
	ha := math.Pow(max, -alpha)
	la := math.Pow(xm, -alpha)
	return math.Pow(la-float64(u*(la-ha)), -1/alpha)
}

// ZipfWeights returns the unnormalized Zipf(s) weights 1/rank^s for ranks
// 1..n; element i holds the weight of rank i+1.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return w
}

// Alias is a Walker alias-method sampler over a fixed discrete
// distribution: O(n) setup, O(1) per sample. The generator uses one per
// popularity table (service ports, busy hosts, flow-length classes).
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias sampler from non-negative weights. It panics if
// weights is empty or sums to zero.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("stats: NewAlias requires at least one weight")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("stats: NewAlias requires non-negative weights")
		}
		sum += w
	}
	if sum == 0 {
		panic("stats: NewAlias requires a positive total weight")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1 // numerical leftovers
	}
	return a
}

// N returns the number of categories.
func (a *Alias) N() int { return len(a.prob) }

// Sample draws a category index in [0, N).
func (a *Alias) Sample(r *Rand) int {
	i := r.IntN(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// NewZipfAlias builds an alias sampler over ranks 0..n-1 with Zipf
// exponent s — the workhorse popularity law of the traffic model.
func NewZipfAlias(n int, s float64) *Alias {
	return NewAlias(ZipfWeights(n, s))
}
