package core

import (
	"math"
	"testing"
)

func TestReduction(t *testing.T) {
	if got := CostReduction(1500000, 3); got != 500000 {
		t.Errorf("CostReduction = %v, want 500000", got)
	}
	if got := CostReduction(100, 0); !math.IsInf(got, 1) {
		t.Errorf("empty output should be +Inf, got %v", got)
	}
	if got := CostReduction(0, 5); got != 0 {
		t.Errorf("zero flows: %v", got)
	}
}

func TestReductionPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative input")
		}
	}()
	CostReduction(-1, 2)
}

func TestPaperScaleReduction(t *testing.T) {
	// §III-F: 0.7–2.6M flows per interval, a handful of item-sets →
	// reductions of several hundred thousand.
	r := CostReduction(2600000, 4)
	if r < 600000 || r > 800000 {
		t.Errorf("2.6M flows / 4 item-sets = %v, expected in [600k, 800k]", r)
	}
}
