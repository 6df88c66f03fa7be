package core_test

import (
	"reflect"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/prefilter"
)

// rowFormExtract is the row-form (AoS) extraction every index-based
// path is pinned against, sharing none of its code: the MetaData
// predicate of the configured strategy applied record by record
// (MatchesFlowAll for the intersection, MatchesFlow otherwise),
// itemset.FromFlows, and the paper's own Apriori. It fills the report
// fields ExtractOffline does.
func rowFormExtract(t *testing.T, cfg core.Config, recs []flow.Record, meta detector.MetaData) *core.Report {
	t.Helper()
	match := meta.MatchesFlow
	if _, all := cfg.Prefilter.(prefilter.Intersection); all {
		match = meta.MatchesFlowAll
	}
	var suspicious []flow.Record
	for i := range recs {
		if match(&recs[i]) {
			suspicious = append(suspicious, recs[i])
		}
	}
	rep := &core.Report{TotalFlows: len(recs), Alarm: true, SuspiciousFlows: len(suspicious)}
	if cfg.KeepSuspicious {
		rep.Suspicious = suspicious
	}
	if len(suspicious) == 0 {
		rep.CostReduction = core.CostReduction(len(recs), 0)
		return rep
	}
	rep.MinSupport = cfg.MinSupport
	if rep.MinSupport == 0 {
		rel := cfg.RelativeSupport
		if rel == 0 {
			rel = 0.05
		}
		rep.MinSupport = max(1, int(rel*float64(len(suspicious))))
	}
	res, err := apriori.New().Mine(itemset.FromFlows(suspicious), rep.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	rep.Mining, rep.ItemSets = res, res.Maximal
	rep.CostReduction = core.CostReduction(len(recs), len(res.Maximal))
	return rep
}

// TestPipelineMatchesAoSReference is the differential harness for the
// columnar buffer: across the full (shards, workers) grid, every
// alarming interval's extraction — run online over the pipeline's SoA
// flow.Buffer through the columnar prefilter scan — must agree exactly
// with rowFormExtract, the row-form (AoS) path that applies the
// MetaData predicate to a plain []flow.Record record by record and
// mines the survivors with Apriori, given the
// same records and the interval's voted meta-data — and so must
// core.ExtractOffline, field for field. For the unsharded runs the
// KeepSuspicious forensic slice must match record for record, order
// included (sharding regroups that one slice by shard; counts and
// item-sets still pin it).
func TestPipelineMatchesAoSReference(t *testing.T) {
	trace := gridtest.Trace(10, 3000, 8)
	pcfg := gridtest.Config()
	pcfg.KeepSuspicious = true

	alarmsChecked := 0
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := pcfg
			cfg.Workers = workers
			sp, err := core.NewPartitioned(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i, recs := range trace {
				rep, err := sp.ProcessInterval(recs)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Alarm {
					continue
				}
				alarmsChecked++
				ref := rowFormExtract(t, pcfg, recs, rep.Detection.Meta)
				off, err := core.ExtractOffline(cfg, recs, rep.Detection.Meta)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(off, ref) {
					t.Fatalf("workers=%d interval %d: ExtractOffline diverged from the AoS reference\ngot:  %+v\nwant: %+v",
						workers, i, off, ref)
				}
				if rep.SuspiciousFlows != ref.SuspiciousFlows {
					t.Fatalf("shards=%d workers=%d interval %d: SoA selected %d suspicious flows, AoS reference %d",
						shards, workers, i, rep.SuspiciousFlows, ref.SuspiciousFlows)
				}
				if rep.MinSupport != ref.MinSupport || rep.CostReduction != ref.CostReduction {
					t.Fatalf("shards=%d workers=%d interval %d: minsup/cost (%d, %v) vs AoS (%d, %v)",
						shards, workers, i, rep.MinSupport, rep.CostReduction, ref.MinSupport, ref.CostReduction)
				}
				if !reflect.DeepEqual(rep.ItemSets, ref.ItemSets) {
					t.Fatalf("shards=%d workers=%d interval %d: item-sets diverged\ngot:  %+v\nwant: %+v",
						shards, workers, i, rep.ItemSets, ref.ItemSets)
				}
				if !reflect.DeepEqual(rep.Mining, ref.Mining) {
					t.Fatalf("shards=%d workers=%d interval %d: mining result diverged", shards, workers, i)
				}
				if shards == 1 && !reflect.DeepEqual(rep.Suspicious, ref.Suspicious) {
					t.Fatalf("workers=%d interval %d: suspicious slice diverged from the AoS reference (%d vs %d records)",
						workers, i, len(rep.Suspicious), len(ref.Suspicious))
				}
			}
			sp.Close()
		}
	}
	if alarmsChecked == 0 {
		t.Fatal("no interval alarmed; the differential never compared extraction")
	}
}

// TestExtractOfflineWorkersDeterminism pins the post-mortem entry point
// to the same contract: parallel prefiltering returns a report deeply
// equal to the sequential one for every worker count.
func TestExtractOfflineWorkersDeterminism(t *testing.T) {
	recs := gridtest.Trace(1, 5000, 0)[0]
	meta := detector.NewMetaData()
	meta.Add(flow.DstPort, 31337)
	meta.Add(flow.DstIP, 42)
	meta.Add(flow.DstPort, 7)

	cfg := core.Config{KeepSuspicious: true, Workers: 1}
	want, err := core.ExtractOffline(cfg, recs, meta)
	if err != nil {
		t.Fatal(err)
	}
	if want.SuspiciousFlows == 0 {
		t.Fatal("meta selected nothing; parallel path not exercised")
	}
	for _, workers := range []int{0, 2, 4, 8} {
		cfg.Workers = workers
		got, err := core.ExtractOffline(cfg, recs, meta)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: offline report diverged\ngot:  %+v\nwant: %+v", workers, got, want)
		}
	}
}
