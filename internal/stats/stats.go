// Package stats collects the statistical primitives the pipeline relies
// on: robust scale estimation for the detector threshold (§II-C), the
// binomial voting bounds of Eqs. (1)–(3) (§II-D), and the heavy-tailed
// samplers that drive the synthetic backbone traffic model (§III-A
// substitution, see DESIGN.md §3).
//
// Everything here is deterministic: the estimators are pure functions
// of their sample slices (sorting internal copies, never the caller's
// slice), and the samplers are seeded generators that replay the same
// sequence for the same seed on every platform.
package stats

import (
	"math"
	"sort"
)

// MADScale is the consistency constant that turns a median absolute
// deviation into an estimate of the standard deviation of a normal
// distribution: sigma ≈ 1.4826 * MAD.
const MADScale = 1.4826022185056018

// Median returns the median of xs. It copies and sorts the input and
// returns NaN for an empty slice. For even lengths it returns the mean of
// the two central order statistics.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	tmp := make([]float64, n)
	copy(tmp, xs)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// MAD returns the median absolute deviation of xs around its median:
// median(|x_i - median(x)|). It returns NaN for an empty slice.
func MAD(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Median(xs)
	dev := make([]float64, n)
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// RobustSigma estimates the standard deviation of xs via the MAD,
// assuming approximate normality — exactly the paper's §II-C estimator
// for the first difference of the KL time series: sigma_hat = 1.4826*MAD.
func RobustSigma(xs []float64) float64 {
	return MADScale * MAD(xs)
}

// BinomPMF returns C(n,i) p^i (1-p)^(n-i), computed in log space for
// numerical stability at the extreme tail values Figures 7 and 8 plot on
// logarithmic axes.
func BinomPMF(n, i int, p float64) float64 {
	if i < 0 || i > n || n < 0 {
		return 0
	}
	switch {
	case p <= 0:
		if i == 0 {
			return 1
		}
		return 0
	case p >= 1:
		if i == n {
			return 1
		}
		return 0
	}
	lg := logChoose(n, i) + float64(float64(i)*math.Log(p)) + float64(float64(n-i)*math.Log1p(-p))
	return math.Exp(lg)
}

// BinomTailGE returns P[X >= l] for X ~ Binomial(n, p): the probability
// that at least l of n independent clones select a feature value.
func BinomTailGE(n, l int, p float64) float64 {
	if l <= 0 {
		return 1
	}
	if l > n {
		return 0
	}
	// Sum the smaller tail for accuracy.
	if float64(l) > float64(n)*p {
		var s float64
		for i := l; i <= n; i++ {
			s += BinomPMF(n, i, p)
		}
		return math.Min(1, s)
	}
	var s float64
	for i := 0; i < l; i++ {
		s += BinomPMF(n, i, p)
	}
	return math.Max(0, 1-s)
}

// VoteIncludeLB is Eq. (1): a lower bound on the probability that an
// anomalous feature value (selected by each clone independently with
// probability p) survives l-of-n voting.
func VoteIncludeLB(n, l int, p float64) float64 {
	return BinomTailGE(n, l, p)
}

// VoteMissUB is Eq. (2): the corresponding upper bound beta on the
// probability that an anomalous feature value is eliminated by voting.
func VoteMissUB(n, l int, p float64) float64 {
	return 1 - VoteIncludeLB(n, l, p)
}

// NormalLeak is Eq. (3): the probability gamma that a normal feature value
// survives l-of-n voting, when each clone selects it independently with
// probability q = b/k (b anomalous bins out of k total).
func NormalLeak(n, l, b, k int) float64 {
	if k <= 0 {
		return 0
	}
	q := float64(b) / float64(k)
	if q > 1 {
		q = 1
	}
	return BinomTailGE(n, l, q)
}

// logChoose returns log C(n, i) via log-gamma.
func logChoose(n, i int) float64 {
	lg1, _ := math.Lgamma(float64(n + 1))
	lg2, _ := math.Lgamma(float64(i + 1))
	lg3, _ := math.Lgamma(float64(n - i + 1))
	return lg1 - lg2 - lg3
}
