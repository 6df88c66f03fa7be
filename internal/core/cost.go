// The decrease in manual classification cost of §III-F: instead of
// classifying every flow of a flagged interval, the operator classifies
// the extracted item-sets, and the reduction is
//
//	R = F / I
//
// where F is the number of flows in the flagged interval and I the number
// of item-sets in the mining output. The paper assumes classification
// cost linear in the number of items to classify and reports reductions
// between 600 000x and 800 000x for 0.7–2.6 M-flow intervals.
//
// Determinism: pure arithmetic on its inputs — no state, no iteration
// order, no clock — so it is trivially deterministic.

package core

import "math"

// CostReduction returns R = flows / itemSets. With an empty mining
// output the operator inspects nothing; the reduction is reported as
// +Inf.
func CostReduction(flows, itemSets int) float64 {
	if flows < 0 || itemSets < 0 {
		panic("cost: negative counts")
	}
	if itemSets == 0 {
		return math.Inf(1)
	}
	return float64(flows) / float64(itemSets)
}
