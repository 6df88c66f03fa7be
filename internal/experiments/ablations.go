package experiments

import (
	"fmt"
	"time"

	"anomalyx/internal/detector"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/mining/eclat"
	"anomalyx/internal/mining/fpgrowth"
	"anomalyx/internal/prefilter"
	"anomalyx/internal/tracegen"
)

// SasserResult is the union-vs-intersection comparison of §II-A on the
// multistage Sasser scenario.
type SasserResult struct {
	Data              *tracegen.SasserData
	UnionFlows        int
	IntersectionFlows int
	UnionItemSets     []itemset.Set
	// StagesExtracted counts worm stages represented in the union's
	// item-sets (the paper's point: all three; the intersection: none).
	StagesExtracted int
	Report          Table
}

// Sasser runs the §II-A experiment: prefilter the worm interval with both
// strategies and mine the union's selection.
func Sasser(seed uint64, benignFlows, minsup int) (*SasserResult, error) {
	d := tracegen.SasserScenario(seed, benignFlows)
	meta := detector.NewMetaData()
	for _, stage := range d.Meta {
		for _, fv := range stage {
			meta.Add(fv.Kind, fv.Value)
		}
	}
	out := &SasserResult{Data: d}
	out.UnionFlows = prefilter.Count(prefilter.Union{}, meta, d.Flows)
	out.IntersectionFlows = prefilter.Count(prefilter.Intersection{}, meta, d.Flows)

	suspicious := prefilter.FilterParallel(prefilter.Union{}, meta, d.Flows, 1)
	res, err := apriori.New().Mine(itemset.FromFlows(suspicious), minsup)
	if err != nil {
		return nil, err
	}
	out.UnionItemSets = res.Maximal
	for s, stage := range d.Meta {
		for i := range res.Maximal {
			found := false
			for _, it := range res.Maximal[i].Items {
				if it.Kind == stage[0].Kind && it.Value == stage[0].Value {
					found = true
				}
			}
			if found {
				out.StagesExtracted++
				break
			}
		}
		_ = s
	}

	out.Report = Table{
		Title:   "§II-A: union vs intersection on a multistage (Sasser-like) worm",
		Headers: []string{"strategy", "suspicious flows", "stages covered"},
	}
	out.Report.addRow("union", out.UnionFlows, out.StagesExtracted)
	out.Report.addRow("intersection", out.IntersectionFlows, 0)
	return out, nil
}

// MinerTiming is one algorithm's wall-clock on one input size.
type MinerTiming struct {
	Miner        string
	Transactions int
	MinSupport   int
	Elapsed      time.Duration
	FrequentSets int
}

// MinerComparisonResult is the §III-E computational-overhead comparison.
type MinerComparisonResult struct {
	Timings []MinerTiming
	Report  Table
}

// MinerComparison mines prefixes of the Table II input with all three
// algorithms, reproducing §III-E's qualitative claims: FP-tree (and
// vertical) miners outperform Apriori, and cost grows with the number of
// transactions.
func MinerComparison(seed uint64, sizes []int, minsupFrac float64) (*MinerComparisonResult, error) {
	if len(sizes) == 0 {
		sizes = []int{50000, 150000, tracegen.TableIITotal}
	}
	if minsupFrac == 0 {
		minsupFrac = 10000.0 / float64(tracegen.TableIITotal)
	}
	data := tracegen.TableIIScenario(seed)
	txs := itemset.FromFlows(data.Flows)
	miners := []mining.Miner{apriori.New(), fpgrowth.New(), eclat.New()}

	out := &MinerComparisonResult{}
	out.Report = Table{
		Title:   "§III-E: miner wall-clock comparison (Table II workload)",
		Headers: []string{"transactions", "minsup", "miner", "elapsed", "frequent sets"},
	}
	for _, size := range sizes {
		if size > len(txs) {
			size = len(txs)
		}
		in := txs[:size]
		minsup := int(minsupFrac * float64(size))
		if minsup < 1 {
			minsup = 1
		}
		var ref *mining.Result
		for _, m := range miners {
			//detlint:ok wallclock -- wall time is what this ablation measures; it never reaches a pipeline report
			t0 := time.Now()
			res, err := m.Mine(in, minsup)
			if err != nil {
				return nil, err
			}
			//detlint:ok wallclock -- closes the miner timing above
			el := time.Since(t0)
			if ref == nil {
				ref = res
			} else if !mining.Equal(res, ref) {
				return nil, fmt.Errorf("experiments: %s disagrees with apriori on %d transactions", m.Name(), size)
			}
			out.Timings = append(out.Timings, MinerTiming{
				Miner: m.Name(), Transactions: size, MinSupport: minsup,
				Elapsed: el, FrequentSets: len(res.All),
			})
			out.Report.addRow(size, minsup, m.Name(), el.Round(time.Millisecond).String(), len(res.All))
		}
	}
	return out, nil
}

// VotingAblationResult sweeps the votes parameter l on one anomalous
// interval, showing the meta-data size tradeoff of §III-C.
type VotingAblationResult struct {
	L         []int
	MetaCount []int
	Report    Table
}

// VotingAblation reruns detection on the trace prefix up to the first
// anomalous interval for each l in 1..n and reports the meta-data size.
func VotingAblation(tr *TraceRun) (*VotingAblationResult, error) {
	anom := tr.AnomalousIntervals()
	if len(anom) == 0 {
		return nil, fmt.Errorf("experiments: no anomalous intervals")
	}
	target := anom[0].Index
	n := tr.Pipeline.Detector.Clones
	if n == 0 {
		n = 3
	}
	out := &VotingAblationResult{}
	out.Report = Table{
		Title:   "Voting ablation: meta-data size vs votes l (first anomalous interval)",
		Headers: []string{"l", "meta-data values"},
	}
	for l := 1; l <= n; l++ {
		bcfg := detector.BankConfig{
			Features: tr.Features,
			Template: tr.Pipeline.Detector,
		}
		bcfg.Template.Votes = l
		bank, err := detector.NewBank(bcfg)
		if err != nil {
			return nil, err
		}
		var res detector.BankResult
		for idx := 0; idx <= target; idx++ {
			recs := tr.Gen.Interval(idx)
			bank.ObserveBatch(recs)
			res = bank.EndInterval()
		}
		bank.Close()
		count := res.Meta.Count()
		out.L = append(out.L, l)
		out.MetaCount = append(out.MetaCount, count)
		out.Report.addRow(l, count)
	}
	return out, nil
}
