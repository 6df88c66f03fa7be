package experiments

import (
	"math"
	"testing"
)

func TestPerfectSeparation(t *testing.T) {
	scores := []float64{10, 9, 8, 1, 0.5, 0.2}
	labels := []bool{true, true, true, false, false, false}
	c := computeROC(scores, labels)
	if auc := c.auc(); math.Abs(auc-1) > 1e-9 {
		t.Errorf("AUC = %v, want 1", auc)
	}
	if tpr := c.TPRAt(0); tpr != 1 {
		t.Errorf("TPR at FPR 0 = %v, want 1", tpr)
	}
}

func TestRandomScoresAUCHalf(t *testing.T) {
	// Alternating labels with strictly decreasing scores: AUC ≈ 0.5.
	var scores []float64
	var labels []bool
	for i := 0; i < 1000; i++ {
		scores = append(scores, float64(1000-i))
		labels = append(labels, i%2 == 0)
	}
	c := computeROC(scores, labels)
	if auc := c.auc(); math.Abs(auc-0.5) > 0.01 {
		t.Errorf("AUC = %v, want ~0.5", auc)
	}
}

func TestInvertedScores(t *testing.T) {
	scores := []float64{1, 2, 3, 4}
	labels := []bool{true, true, false, false}
	c := computeROC(scores, labels)
	if auc := c.auc(); auc > 0.1 {
		t.Errorf("AUC = %v, want ~0 for inverted scores", auc)
	}
}

func TestCurveMonotone(t *testing.T) {
	scores := []float64{5, 4, 4, 3, 2, 2, 1}
	labels := []bool{true, false, true, true, false, false, true}
	c := computeROC(scores, labels)
	prevF, prevT := -1.0, -1.0
	for _, p := range c {
		if p.FPR < prevF || p.TPR < prevT {
			t.Fatalf("curve not monotone: %+v", c)
		}
		prevF, prevT = p.FPR, p.TPR
	}
	last := c[len(c)-1]
	if last.FPR != 1 || last.TPR != 1 {
		t.Errorf("curve must end at (1,1), got (%v,%v)", last.FPR, last.TPR)
	}
}

func TestTiesGroupedTogether(t *testing.T) {
	// Two rows share a score: they must move the curve in one step.
	scores := []float64{3, 3, 1}
	labels := []bool{true, false, false}
	c := computeROC(scores, labels)
	if len(c) != 2 {
		t.Fatalf("got %d points, want 2: %+v", len(c), c)
	}
	if c[0].TPR != 1 || c[0].FPR != 0.5 {
		t.Errorf("tie handling wrong: %+v", c[0])
	}
}

func TestTPRAt(t *testing.T) {
	scores := []float64{10, 8, 6, 4, 2}
	labels := []bool{true, false, true, false, true}
	c := computeROC(scores, labels)
	// Operating points: (0,1/3), (1/2,1/3), (1/2,2/3), (1,2/3), (1,1).
	if got := c.TPRAt(0.4); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("TPRAt(0.4) = %v", got)
	}
}

func TestAllOneClass(t *testing.T) {
	c := computeROC([]float64{1, 2, 3}, []bool{true, true, true})
	// No negatives: FPR pinned to 0.
	for _, p := range c {
		if p.FPR != 0 {
			t.Errorf("FPR with no negatives: %+v", p)
		}
	}
}

func TestComputePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	computeROC([]float64{1}, []bool{true, false})
}

func TestEmptyCurveAUC(t *testing.T) {
	var c Curve
	if !math.IsNaN(c.auc()) {
		t.Error("empty curve AUC should be NaN")
	}
}
