package experiments

import (
	"math"
	"testing"
)

func TestMeanReduction(t *testing.T) {
	flows := []int{1000, 2000, 3000}
	sets := []int{10, 20, 0} // last one: empty output, skipped
	got := meanReduction(flows, sets)
	if got != 100 {
		t.Errorf("meanReduction = %v, want 100", got)
	}
}

func TestMeanReductionAllEmpty(t *testing.T) {
	if got := meanReduction([]int{10}, []int{0}); !math.IsNaN(got) {
		t.Errorf("all-empty mean should be NaN, got %v", got)
	}
}

func TestMeanReductionPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	meanReduction([]int{1, 2}, []int{1})
}
