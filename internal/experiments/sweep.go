package experiments

import (
	"fmt"
	"math"

	"anomalyx/internal/core"
	"anomalyx/internal/itemset"
	"anomalyx/internal/tracegen"
)

// SupportsFor returns the minimum-support sweep for Figs. 9 and 10. At
// Full scale it is the paper's own axis (3000–10000 flows); at Quick
// scale the range shrinks proportionally to the smaller intervals.
func SupportsFor(s Scale) []int {
	if s == Quick {
		return []int{300, 500, 750, 1000, 1250, 1500, 2000, 2500}
	}
	return []int{3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
}

// IntervalSweep is the mining outcome of one anomalous interval at one
// minimum support.
type IntervalSweep struct {
	Interval   int
	MinSupport int
	ItemSets   int
	TP         int
	FP         int
	TotalFlows int
	Suspicious int
}

// SweepResult aggregates the support sweep over every ground-truth
// anomalous interval — the shared computation behind Fig. 9 and Fig. 10.
type SweepResult struct {
	Supports []int
	// Cells[i][s] is the outcome of anomalous interval i at support
	// index s.
	Cells [][]IntervalSweep
	// Missed counts anomalous intervals with no usable meta-data (the
	// detector never alarmed during the event).
	Missed int
}

// RunSweep regenerates each anomalous interval, prefilters it with its
// effective meta-data, and mines it at every support in supports.
// Item-sets are classified against the interval's active events: TP if
// matching any signature, FP otherwise (§III-A's manual classification,
// made mechanical).
func RunSweep(tr *TraceRun, supports []int) (*SweepResult, error) {
	if len(supports) == 0 {
		supports = SupportsFor(tr.Scale)
	}
	out := &SweepResult{Supports: supports}
	for _, it := range tr.AnomalousIntervals() {
		if it.EffectiveMeta == nil {
			out.Missed++
			continue
		}
		events := tr.EventsAt(it.Index)
		recs := tr.Gen.Interval(it.Index)

		cfg := tr.Pipeline
		cfg.KeepSuspicious = true
		row := make([]IntervalSweep, 0, len(supports))
		for _, s := range supports {
			cfg.MinSupport = s
			rep, err := core.ExtractOffline(cfg, recs, it.EffectiveMeta)
			if err != nil {
				return nil, err
			}
			cell := IntervalSweep{
				Interval: it.Index, MinSupport: s,
				ItemSets: len(rep.ItemSets), TotalFlows: rep.TotalFlows,
				Suspicious: rep.SuspiciousFlows,
			}
			for i := range rep.ItemSets {
				if anyEventMatches(events, &rep.ItemSets[i]) {
					cell.TP++
				} else {
					cell.FP++
				}
			}
			row = append(row, cell)
		}
		out.Cells = append(out.Cells, row)
	}
	if len(out.Cells) == 0 {
		return nil, fmt.Errorf("experiments: no anomalous interval had meta-data")
	}
	return out, nil
}

func anyEventMatches(events []tracegen.GroundTruthEvent, s *itemset.Set) bool {
	for i := range events {
		if matchesEvent(&events[i], s) {
			return true
		}
	}
	return false
}

// Fig9Result is the false-positive item-set analysis of Fig. 9.
type Fig9Result struct {
	Supports []int
	// AvgFP[s] is the mean FP item-set count over all anomalous
	// intervals at support index s; MaxFP the worst interval.
	AvgFP []float64
	MaxFP []int
	// ZeroFPIntervals counts intervals with no FP item-sets at any
	// support (the paper reports 70%); ZeroFPPerSupport the per-support
	// counts.
	ZeroFPIntervals  int
	ZeroFPPerSupport []int
	Intervals        int
	// MissedEvents counts intervals where signature-matching item-sets
	// were absent at the smallest support (extraction misses).
	MissedEvents int
	Figure       Figure
}

// Fig9 aggregates the sweep into the paper's FP-item-set figure.
func Fig9(sw *SweepResult) *Fig9Result {
	out := &Fig9Result{Supports: sw.Supports, Intervals: len(sw.Cells)}
	out.AvgFP = make([]float64, len(sw.Supports))
	out.MaxFP = make([]int, len(sw.Supports))
	out.ZeroFPPerSupport = make([]int, len(sw.Supports))
	for _, row := range sw.Cells {
		zero := true
		for s, cell := range row {
			out.AvgFP[s] += float64(cell.FP)
			if cell.FP > out.MaxFP[s] {
				out.MaxFP[s] = cell.FP
			}
			if cell.FP > 0 {
				zero = false
			} else {
				out.ZeroFPPerSupport[s]++
			}
		}
		if zero {
			out.ZeroFPIntervals++
		}
		if row[0].TP == 0 {
			out.MissedEvents++
		}
	}
	for s := range out.AvgFP {
		out.AvgFP[s] /= float64(len(sw.Cells))
	}
	xs := make([]float64, len(sw.Supports))
	for i, s := range sw.Supports {
		xs[i] = float64(s)
	}
	out.Figure = Figure{
		Title:  "Fig 9: false-positive item-sets vs minimum support",
		XLabel: "minsup", YLabel: "FP item-sets",
	}
	avg := Series{Name: "average", X: xs, Y: out.AvgFP}
	max := Series{Name: "max", X: xs}
	for _, m := range out.MaxFP {
		max.Y = append(max.Y, float64(m))
	}
	out.Figure.add(avg)
	out.Figure.add(max)
	return out
}

// Fig10Result is the classification-cost reduction of Fig. 10.
type Fig10Result struct {
	Supports []int
	AvgR     []float64
	Figure   Figure
}

// Fig10 computes the average decrease in classification cost R = F/I per
// minimum support over the anomalous intervals (intervals whose mining
// output was empty are skipped in the average, as division by zero).
func Fig10(sw *SweepResult) *Fig10Result {
	out := &Fig10Result{Supports: sw.Supports}
	out.AvgR = make([]float64, len(sw.Supports))
	for s := range sw.Supports {
		flows := make([]int, 0, len(sw.Cells))
		sets := make([]int, 0, len(sw.Cells))
		for _, row := range sw.Cells {
			flows = append(flows, row[s].TotalFlows)
			sets = append(sets, row[s].ItemSets)
		}
		r := meanReduction(flows, sets)
		if math.IsNaN(r) {
			r = 0
		}
		out.AvgR[s] = r
	}
	xs := make([]float64, len(sw.Supports))
	for i, s := range sw.Supports {
		xs[i] = float64(s)
	}
	out.Figure = Figure{
		Title:  "Fig 10: average decrease in classification cost vs minimum support",
		XLabel: "minsup", YLabel: "R = flows/item-sets",
	}
	out.Figure.add(Series{Name: "avg R", X: xs, Y: out.AvgR})
	return out
}

// meanReduction averages the per-interval cost reductions
// (core.CostReduction), skipping infinite entries (intervals whose
// mining output was empty), mirroring how the paper averages over its 31
// anomalous intervals.
func meanReduction(flows, itemSets []int) float64 {
	if len(flows) != len(itemSets) {
		panic("cost: length mismatch")
	}
	sum, n := 0.0, 0
	for i := range flows {
		r := core.CostReduction(flows[i], itemSets[i])
		if math.IsInf(r, 1) {
			continue
		}
		sum += r
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
