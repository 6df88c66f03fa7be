package experiments

import (
	"fmt"
	"sort"

	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

// SketchVsClonesResult contrasts histogram cloning with a count-min
// sketch for identifying the feature values of an anomaly (footnote 1 /
// DESIGN.md §5). Both use random projections; the sketch answers point
// queries over an externally supplied candidate list, while the clones
// enumerate the disrupted values themselves.
type SketchVsClonesResult struct {
	Interval int
	Feature  flow.FeatureKind
	// Clone results: values the voted meta-data identified.
	CloneValues    int
	ClonePrecision float64
	CloneRecall    float64
	// Sketch results over the same interval.
	SketchValues    int
	SketchPrecision float64
	SketchRecall    float64
	Report          Table
}

// SketchVsClones compares, on the first anomalous interval with dstPort
// meta-data, the clone-voted values against a count-min-based change
// detector (estimate the per-value count increase vs the previous
// interval; flag values whose increase exceeds share*interval flows).
func SketchVsClones(tr *TraceRun, share float64) (*SketchVsClonesResult, error) {
	if share == 0 {
		share = 0.02
	}
	const feature = flow.DstPort
	var target *IntervalTrace
	for _, it := range tr.AnomalousIntervals() {
		if it.Meta != nil && len(it.Meta.Values(feature)) > 0 {
			target = it
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("experiments: no anomalous interval with dstPort meta-data")
	}

	// Ground truth: dstPort signature values of the active events.
	truth := map[uint64]bool{}
	for _, ev := range tr.EventsAt(target.Index) {
		for _, fv := range ev.Signature {
			if fv.Kind == feature {
				truth[fv.Value] = true
			}
		}
	}
	if len(truth) == 0 {
		return nil, fmt.Errorf("experiments: interval %d events have no dstPort signature", target.Index)
	}

	// Sketch side: one sketch per interval, candidates tracked
	// externally (the clone approach needs no such list — that is the
	// structural difference the ablation shows).
	prev := newCountMin(4096, 4, tr.Gen.Config().Seed)
	cur := newCountMin(4096, 4, tr.Gen.Config().Seed)
	candidates := map[uint64]bool{}
	for _, rec := range tr.Gen.Interval(target.Index - 1) {
		prev.add(rec.Feature(feature), 1)
	}
	recs := tr.Gen.Interval(target.Index)
	for i := range recs {
		v := recs[i].Feature(feature)
		cur.add(v, 1)
		candidates[v] = true
	}
	threshold := uint64(float64(share * float64(len(recs))))
	var sketchFlagged []uint64
	for v := range candidates {
		c, p := cur.estimate(v), prev.estimate(v)
		if c > p && c-p >= threshold {
			sketchFlagged = append(sketchFlagged, v)
		}
	}
	sort.Slice(sketchFlagged, func(i, j int) bool { return sketchFlagged[i] < sketchFlagged[j] })

	cloneFlagged := target.Meta.Values(feature)

	pr := func(flagged []uint64) (prec, rec float64) {
		if len(flagged) == 0 {
			return 0, 0
		}
		hit := 0
		for _, v := range flagged {
			if truth[v] {
				hit++
			}
		}
		return float64(hit) / float64(len(flagged)), float64(hit) / float64(len(truth))
	}

	out := &SketchVsClonesResult{Interval: target.Index, Feature: feature}
	out.CloneValues = len(cloneFlagged)
	out.ClonePrecision, out.CloneRecall = pr(cloneFlagged)
	out.SketchValues = len(sketchFlagged)
	out.SketchPrecision, out.SketchRecall = pr(sketchFlagged)

	out.Report = Table{
		Title: fmt.Sprintf("Histogram cloning vs count-min sketch (interval %d, %s)",
			target.Index, feature),
		Headers: []string{"method", "values flagged", "precision", "recall", "needs candidate list"},
	}
	out.Report.addRow("clones+voting", out.CloneValues, out.ClonePrecision, out.CloneRecall, "no")
	out.Report.addRow("count-min diff", out.SketchValues, out.SketchPrecision, out.SketchRecall, "yes")
	return out, nil
}

// HHHBaselineResult compares hierarchical heavy-hitter detection against
// item-set mining on one anomalous interval (§III-D / §IV).
type HHHBaselineResult struct {
	Interval int
	Class    tracegen.Class
	// VictimHit reports whether an HHH pinpoints the event's address
	// footprint (a /32 for flooding/DDoS victims, a covering prefix for
	// scans).
	VictimHit bool
	Hitters   []HeavyHitter
	Report    Table
}

// HHHBaseline runs exact HHH over the destination addresses of the first
// DDoS/Flooding interval's suspicious flows and checks whether the victim
// surfaces — the paper's suggested complement for range anomalies.
func HHHBaseline(tr *TraceRun, phi float64) (*HHHBaselineResult, error) {
	if phi == 0 {
		phi = 0.1
	}
	for _, it := range tr.AnomalousIntervals() {
		for _, ev := range tr.EventsAt(it.Index) {
			if ev.Class != tracegen.DDoS && ev.Class != tracegen.Flooding {
				continue
			}
			var victim uint32
			for _, fv := range ev.Signature {
				if fv.Kind == flow.DstIP {
					victim = uint32(fv.Value)
				}
			}
			if victim == 0 {
				continue
			}
			d := newHHH(nil)
			if err := d.addFlows(tr.Gen.Interval(it.Index), flow.DstIP); err != nil {
				return nil, err
			}
			hitters := d.detect(phi)
			out := &HHHBaselineResult{Interval: it.Index, Class: ev.Class, Hitters: hitters}
			for _, h := range hitters {
				if h.Prefix.contains(Prefix{Addr: victim, Len: 32}) || h.Prefix == (Prefix{Addr: victim, Len: 32}) {
					out.VictimHit = true
				}
			}
			out.Report = Table{
				Title: fmt.Sprintf("HHH baseline (interval %d, %s, phi=%.2f): victim hit = %v",
					it.Index, ev.Class, phi, out.VictimHit),
				Headers: []string{"prefix", "count", "discounted"},
			}
			for _, h := range hitters {
				out.Report.addRow(h.Prefix.String(), h.Count, h.Discounted)
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("experiments: no DDoS/flooding interval found")
}
