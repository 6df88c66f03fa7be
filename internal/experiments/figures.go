package experiments

import (
	"fmt"
	"math"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/stats"
	"anomalyx/internal/tracegen"
)

// Fig4Result carries the KL time series of Fig. 4: raw KL distance (top
// plot) and its first difference with the MAD threshold (bottom plot) for
// the source-IP feature.
type Fig4Result struct {
	Intervals []int
	KL        []float64
	Diff      []float64
	Threshold []float64
	Figure    Figure
	// AlarmsAboveThreshold counts intervals whose first difference
	// exceeded the threshold (the positive spikes of the bottom plot).
	AlarmsAboveThreshold int
}

// Fig4 extracts the srcIP KL time series (clone 0) over the first two
// days of the run, or the whole run when shorter.
func Fig4(tr *TraceRun) (*Fig4Result, error) {
	fi := tr.featureIndex(flow.SrcIP)
	if fi < 0 {
		return nil, fmt.Errorf("experiments: srcIP not monitored")
	}
	n := len(tr.Intervals)
	twoDays := int((48 * 3600 * 1000) / tr.Gen.Config().IntervalLen.Milliseconds())
	if n > twoDays {
		n = twoDays
	}
	out := &Fig4Result{}
	for i := 0; i < n; i++ {
		it := &tr.Intervals[i]
		out.Intervals = append(out.Intervals, i)
		out.KL = append(out.KL, it.KL[fi][0])
		out.Diff = append(out.Diff, it.Diff[fi][0])
		out.Threshold = append(out.Threshold, it.Threshold[fi])
		if it.Threshold[fi] > 0 && it.Diff[fi][0] > it.Threshold[fi] {
			out.AlarmsAboveThreshold++
		}
	}
	xs := make([]float64, len(out.Intervals))
	for i, v := range out.Intervals {
		xs[i] = float64(v)
	}
	out.Figure = Figure{
		Title: "Fig 4: KL distance time series (srcIP, clone 0)", XLabel: "interval", YLabel: "bits",
	}
	out.Figure.add(Series{Name: "KL", X: xs, Y: out.KL})
	out.Figure.add(Series{Name: "diff", X: xs, Y: out.Diff})
	out.Figure.add(Series{Name: "threshold", X: xs, Y: out.Threshold})
	return out, nil
}

// Fig5Result is the iterative anomalous-bin identification convergence of
// Fig. 5: the KL distance after each removal round.
type Fig5Result struct {
	Interval    int
	Feature     flow.FeatureKind
	KLSeries    []float64
	BinsRemoved int
	Converged   bool
	Figure      Figure
}

// Fig5 reruns detection up to the first flooding event's start interval
// and records the per-round KL series of the identification on the
// destination-IP feature (the feature a flooding victim disrupts most).
func Fig5(tr *TraceRun) (*Fig5Result, error) {
	// Pick the earliest flooding/DDoS event that is alone in its start
	// interval: a concentrated, single-event disruption converges in a
	// few rounds like the paper's Fig. 5, whereas an interval that also
	// hosts a distributed event (e.g. a scan) keeps the cleaned
	// histogram above threshold (§III-C's multi-bin caveat).
	var target *tracegen.GroundTruthEvent
	for i := range tr.GroundTruth {
		ev := &tr.GroundTruth[i]
		if ev.Class != tracegen.Flooding && ev.Class != tracegen.DDoS {
			continue
		}
		if len(tr.EventsAt(ev.Start)) != 1 {
			continue
		}
		if target == nil || ev.Start < target.Start {
			target = ev
		}
	}
	if target == nil {
		return nil, fmt.Errorf("experiments: no single-event flooding/ddos interval in schedule")
	}

	dcfg := tr.Pipeline.Detector
	dcfg.Feature = flow.DstIP
	det, err := detector.New(dcfg)
	if err != nil {
		return nil, err
	}
	var res detector.Result
	for idx := 0; idx <= target.Start; idx++ {
		recs := tr.Gen.Interval(idx)
		det.ObserveBatch(recs)
		res = det.EndInterval()
	}
	out := &Fig5Result{Interval: target.Start, Feature: flow.DstIP}
	for _, rep := range res.Clones {
		if rep.Alarm {
			out.KLSeries = rep.Identification.KLSeries
			out.BinsRemoved = len(rep.Identification.Bins)
			out.Converged = rep.Identification.Converged
			break
		}
	}
	if out.KLSeries == nil {
		return nil, fmt.Errorf("experiments: event at interval %d raised no dstIP alarm", target.Start)
	}
	xs := make([]float64, len(out.KLSeries))
	for i := range xs {
		xs[i] = float64(i)
	}
	out.Figure = Figure{
		Title:  fmt.Sprintf("Fig 5: iterative bin identification (interval %d, dstIP)", out.Interval),
		XLabel: "round", YLabel: "KL distance (bits)",
	}
	out.Figure.add(Series{Name: "KL", X: xs, Y: out.KLSeries})
	return out, nil
}

// Fig6Result holds per-clone ROC curves.
type Fig6Result struct {
	Curves []Curve
	AUC    []float64
	Figure Figure
}

// Fig6 computes one ROC curve per histogram clone. The per-interval
// detection score of clone c is the maximum over features of the KL
// first difference normalized by that feature's robust sigma; sweeping a
// threshold over this score reproduces the paper's threshold sweep.
// Training intervals (no threshold yet) are excluded.
func Fig6(tr *TraceRun) (*Fig6Result, error) {
	if len(tr.Intervals) == 0 {
		return nil, fmt.Errorf("experiments: empty run")
	}
	clones := tr.Pipeline.Detector.Clones
	if clones == 0 {
		clones = 3
	}
	alpha := tr.Pipeline.Detector.Alpha
	if alpha == 0 {
		alpha = 3
	}
	out := &Fig6Result{}
	out.Figure = Figure{
		Title: "Fig 6: ROC curves per histogram clone", XLabel: "FPR", YLabel: "TPR",
	}
	for c := 0; c < clones; c++ {
		var scores []float64
		var labels []bool
		for i := range tr.Intervals {
			it := &tr.Intervals[i]
			trained := true
			score := math.Inf(-1)
			for f := range it.Diff {
				if it.Threshold[f] <= 0 {
					trained = false
					break
				}
				sigma := it.Threshold[f] / alpha
				if s := it.Diff[f][c] / sigma; s > score {
					score = s
				}
			}
			if !trained {
				continue
			}
			scores = append(scores, score)
			labels = append(labels, it.Anomalous)
		}
		curve := computeROC(scores, labels)
		out.Curves = append(out.Curves, curve)
		out.AUC = append(out.AUC, curve.auc())
		fpr := make([]float64, len(curve))
		tpr := make([]float64, len(curve))
		for i, p := range curve {
			fpr[i] = p.FPR
			tpr[i] = p.TPR
		}
		out.Figure.add(Series{Name: fmt.Sprintf("clone %d", c), X: fpr, Y: tpr})
	}
	return out, nil
}

// Fig7Result holds the analytic voting-miss bound of Eq. (2).
type Fig7Result struct {
	N      []int
	Beta   map[string][]float64 // series name -> beta per n
	Figure Figure
}

// Fig7 evaluates the upper bound beta that an anomalous feature value is
// eliminated by l-of-n voting, for p = 0.97 (the paper's setting,
// corresponding to a detection false-positive rate of ~0.03) and
// n ∈ [1, 25], with the l=1, l=ceil(n/2) and l=n curves.
func Fig7(p float64) *Fig7Result {
	if p == 0 {
		p = 0.97
	}
	out := &Fig7Result{Beta: map[string][]float64{}}
	names := []string{"l=1", "l=n/2", "l=n"}
	lOf := func(name string, n int) int {
		switch name {
		case "l=1":
			return 1
		case "l=n/2":
			l := (n + 1) / 2
			if l < 1 {
				l = 1
			}
			return l
		default:
			return n
		}
	}
	xs := make([]float64, 0, 25)
	for n := 1; n <= 25; n++ {
		out.N = append(out.N, n)
		xs = append(xs, float64(n))
	}
	out.Figure = Figure{
		Title:  fmt.Sprintf("Fig 7: upper bound beta (anomalous value missed), p=%.2f", p),
		XLabel: "n (clones)", YLabel: "beta",
	}
	for _, name := range names {
		ys := make([]float64, 0, 25)
		for _, n := range out.N {
			ys = append(ys, stats.VoteMissUB(n, lOf(name, n), p))
		}
		out.Beta[name] = ys
		out.Figure.add(Series{Name: name, X: xs, Y: ys})
	}
	return out
}

// Fig8Result holds the analytic normal-value leak probability of Eq. (3).
type Fig8Result struct {
	B      int
	N      []int
	Gamma  map[string][]float64
	Figure Figure
}

// Fig8 evaluates gamma — the probability that a normal feature value
// survives l-of-n voting — for b anomalous bins out of k = 1024 total
// (the paper plots b=1 and b=5), n ∈ [1, 25].
func Fig8(b, k int) *Fig8Result {
	if k == 0 {
		k = 1024
	}
	out := &Fig8Result{B: b, Gamma: map[string][]float64{}}
	names := []string{"l=1", "l=n/2", "l=n"}
	lOf := func(name string, n int) int {
		switch name {
		case "l=1":
			return 1
		case "l=n/2":
			l := (n + 1) / 2
			if l < 1 {
				l = 1
			}
			return l
		default:
			return n
		}
	}
	xs := make([]float64, 0, 25)
	for n := 1; n <= 25; n++ {
		out.N = append(out.N, n)
		xs = append(xs, float64(n))
	}
	out.Figure = Figure{
		Title:  fmt.Sprintf("Fig 8: gamma (normal value survives voting), b=%d, k=%d", b, k),
		XLabel: "n (clones)", YLabel: "gamma",
	}
	for _, name := range names {
		ys := make([]float64, 0, 25)
		for _, n := range out.N {
			ys = append(ys, stats.NormalLeak(n, lOf(name, n), b, k))
		}
		out.Gamma[name] = ys
		out.Figure.add(Series{Name: name, X: xs, Y: ys})
	}
	return out
}
