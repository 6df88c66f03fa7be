// Receiver-operating-characteristic curves for the detection
// evaluation of §III-B: given a per-interval detection score (the first
// difference of the KL time series) and the ground-truth labeling of
// intervals, computeROC sweeps the alarm threshold and reports (FPR,
// TPR) operating points. Curves are deterministic functions of the
// (score, label) pairs: thresholds sweep the scores in descending order
// and equal scores collapse into one operating point, so interval order
// never changes a curve.

package experiments

import (
	"math"
	"sort"
)

// Point is one ROC operating point.
type Point struct {
	Threshold float64
	// FPR is the ratio of false-positive intervals to all negative
	// intervals; TPR the ratio of detected to all positive intervals.
	FPR float64
	TPR float64
}

// Curve is a threshold-sorted sequence of operating points (descending
// threshold: from the (0,0) corner toward (1,1)).
type Curve []Point

// computeROC builds the ROC curve for scores vs. binary labels (true =
// anomalous interval). Each distinct score value contributes an
// operating point; an interval alarms when score > threshold, matching
// the detector's strict one-sided test.
func computeROC(scores []float64, labels []bool) Curve {
	if len(scores) != len(labels) {
		panic("roc: scores and labels length mismatch")
	}
	type sl struct {
		score float64
		label bool
	}
	rows := make([]sl, len(scores))
	positives, negatives := 0, 0
	for i := range scores {
		rows[i] = sl{scores[i], labels[i]}
		if labels[i] {
			positives++
		} else {
			negatives++
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].score > rows[j].score })

	var curve Curve
	tp, fp := 0, 0
	for i := 0; i < len(rows); {
		// Consume ties together: every row with this score alarms at a
		// threshold just below it.
		s := rows[i].score
		for i < len(rows) && rows[i].score == s {
			if rows[i].label {
				tp++
			} else {
				fp++
			}
			i++
		}
		curve = append(curve, Point{
			Threshold: s,
			FPR:       ratio(fp, negatives),
			TPR:       ratio(tp, positives),
		})
	}
	return curve
}

// auc returns the area under the curve by trapezoidal integration,
// including the implicit (0,0) and (1,1) endpoints.
func (c Curve) auc() float64 {
	if len(c) == 0 {
		return math.NaN()
	}
	area := 0.0
	prevFPR, prevTPR := 0.0, 0.0
	for _, p := range c {
		area += float64((p.FPR - prevFPR) * (p.TPR + prevTPR) / 2)
		prevFPR, prevTPR = p.FPR, p.TPR
	}
	area += float64((1 - prevFPR) * (1 + prevTPR) / 2)
	return area
}

// TPRAt returns the best TPR achievable with FPR <= maxFPR.
func (c Curve) TPRAt(maxFPR float64) float64 {
	best := 0.0
	for _, p := range c {
		if p.FPR <= maxFPR && p.TPR > best {
			best = p.TPR
		}
	}
	return best
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
