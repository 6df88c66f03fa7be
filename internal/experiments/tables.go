package experiments

import (
	"fmt"
	"sort"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/tracegen"
)

// TableIIResult reproduces the worked Apriori example of §II-B.
type TableIIResult struct {
	Input  *tracegen.TableIIData
	Mining *mining.Result
	// PortSevenK counts maximal item-sets carrying dstPort=7000 — the
	// paper verifies exactly three.
	PortSevenK int
	Report     Table
	Levels     Table
}

// TableII generates the paper's example input (350 872 flows; flooding on
// dstPort 7000 plus the three most popular ports added as forced false
// positives) and mines it with the modified Apriori at minimum support
// 10 000.
func TableII(seed uint64) (*TableIIResult, error) {
	data := tracegen.TableIIScenario(seed)
	res, err := apriori.New().Mine(itemset.FromFlows(data.Flows), data.MinSupport)
	if err != nil {
		return nil, err
	}
	out := &TableIIResult{Input: data, Mining: res}
	out.Report = Table{
		Title:   fmt.Sprintf("Table II: maximal frequent item-sets (input %d flows, minsup %d)", len(data.Flows), data.MinSupport),
		Headers: []string{"item-set", "support"},
	}
	for i := range res.Maximal {
		s := &res.Maximal[i]
		items := ""
		for j, it := range s.Items {
			if j > 0 {
				items += ", "
			}
			items += it.String()
		}
		out.Report.addRow("{"+items+"}", s.Support)
		for _, it := range s.Items {
			if it.Kind == flow.DstPort && it.Value == uint64(data.FloodPort) {
				out.PortSevenK++
			}
		}
	}
	out.Levels = Table{
		Title:   "Table II rounds: frequent k-item-sets found vs kept as maximal",
		Headers: []string{"k", "frequent", "maximal", "pruned as subsets"},
	}
	for _, l := range res.Levels {
		out.Levels.addRow(l.Level, l.Frequent, l.Maximal, l.Frequent-l.Maximal)
	}
	return out, nil
}

// TableIII renders the parameter table (Table III) from the paper-default
// pipeline configuration.
func TableIII(s Scale) Table {
	pc := PipelineConfig(s)
	t := Table{
		Title:   "Table III: parameters",
		Headers: []string{"param", "meaning", "default", "paper range"},
	}
	tc := TraceConfig(s)
	t.addRow("d", "number of histogram detectors (features)", 5, "5")
	t.addRow("Delta", "interval length", tc.IntervalLen.String(), "5-15 min")
	t.addRow("m", "hash length (k = 2^m bins)", pc.Detector.Bins, "512-2048 bins")
	t.addRow("n", "histogram clones", pc.Detector.Clones, "1-25")
	t.addRow("l", "votes required", pc.Detector.Votes, "1-n")
	t.addRow("s", "minimum support", fmt.Sprintf("%.0f%% of suspicious flows", pc.RelativeSupport*100), "3000-10000 flows (1-10%)")
	t.addRow("alpha", "MAD threshold multiplier", pc.Detector.Alpha, "3")
	return t
}

// TableIVRow is one anomaly class of Table IV.
type TableIVRow struct {
	Class     tracegen.Class
	Events    int
	AvgFlows  float64
	Detected  int // events with >= 1 alarming interval
	Extracted int // detected events whose mining output matches the signature
}

// TableIVResult is the ground-truth inventory plus measured detection and
// extraction per class.
type TableIVResult struct {
	Rows               []TableIVRow
	TotalEvents        int
	AnomalousIntervals int
	Report             Table
}

// TableIV summarizes the injected ground truth of a completed trace run
// and measures, per class, how many events the pipeline detected and
// extracted (an event is extracted when at least one maximal item-set of
// an affected interval matches its signature).
func TableIV(tr *TraceRun) (*TableIVResult, error) {
	type agg struct {
		events    int
		flows     int
		detected  int
		extracted int
	}
	byClass := map[tracegen.Class]*agg{}

	for _, ev := range tr.GroundTruth {
		a := byClass[ev.Class]
		if a == nil {
			a = &agg{}
			byClass[ev.Class] = a
		}
		a.events++
		a.flows += ev.Flows

		detected, extracted := false, false
		for idx := ev.Start; idx <= ev.End && idx < len(tr.Intervals); idx++ {
			it := &tr.Intervals[idx]
			if it.Alarm {
				detected = true
			}
			if extracted || it.EffectiveMeta == nil {
				continue
			}
			sets, err := mineInterval(tr, idx, 0) // default relative support
			if err != nil {
				return nil, err
			}
			for i := range sets {
				if matchesEvent(&ev, &sets[i]) {
					extracted = true
					break
				}
			}
		}
		if detected {
			a.detected++
		}
		if extracted {
			a.extracted++
		}
	}

	out := &TableIVResult{}
	seen := map[int]bool{}
	for _, ev := range tr.GroundTruth {
		out.TotalEvents++
		for i := ev.Start; i <= ev.End; i++ {
			if !seen[i] {
				seen[i] = true
				out.AnomalousIntervals++
			}
		}
	}
	var classes []tracegen.Class
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	out.Report = Table{
		Title:   fmt.Sprintf("Table IV: %d events in %d anomalous intervals", out.TotalEvents, out.AnomalousIntervals),
		Headers: []string{"class", "events", "avg flows/interval", "detected", "extracted"},
	}
	for _, c := range classes {
		a := byClass[c]
		row := TableIVRow{
			Class: c, Events: a.events,
			AvgFlows: float64(a.flows) / float64(a.events),
			Detected: a.detected, Extracted: a.extracted,
		}
		out.Rows = append(out.Rows, row)
		out.Report.addRow(c.String(), row.Events, row.AvgFlows, row.Detected, row.Extracted)
	}
	return out, nil
}

// mineInterval regenerates interval idx, prefilters it with the recorded
// effective meta-data, and mines it. minsup 0 selects the pipeline's
// relative default.
func mineInterval(tr *TraceRun, idx int, minsup int) ([]itemset.Set, error) {
	it := &tr.Intervals[idx]
	if it.EffectiveMeta == nil {
		return nil, nil
	}
	cfg := tr.Pipeline
	cfg.MinSupport = minsup
	rep, err := core.ExtractOffline(cfg, tr.Gen.Interval(idx), it.EffectiveMeta)
	if err != nil {
		return nil, err
	}
	return rep.ItemSets, nil
}

// matchesEvent converts an item-set to feature values and tests it
// against the event signature.
func matchesEvent(ev *tracegen.GroundTruthEvent, s *itemset.Set) bool {
	fvs := make([]tracegen.FeatureValue, len(s.Items))
	for i, it := range s.Items {
		fvs[i] = tracegen.FeatureValue{Kind: it.Kind, Value: it.Value}
	}
	return ev.Matches(fvs)
}
