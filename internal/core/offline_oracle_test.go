package core_test

import (
	"reflect"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
)

// TestExtractOfflineMatchesOracle holds the post-mortem entry point to
// the paper: on every interval of the grid trace whose alarm carries
// meta-data, ExtractOffline over the interval's records and that
// meta-data, at every worker count, fills the extraction fields exactly
// as gridtest.Oracle's report does, the suspicious flows in order
// included. TestGrid holds the online close to the same reports.
func TestExtractOfflineMatchesOracle(t *testing.T) {
	trace := gridtest.Trace(10, 3000, 8)
	cfg := gridtest.Config()
	cfg.KeepSuspicious = true
	checked := 0
	for i, ref := range gridtest.Reference(t, cfg, trace) {
		if len(ref.Detection.Meta) == 0 {
			continue
		}
		checked++
		want := &core.Report{
			Alarm: true, TotalFlows: ref.TotalFlows, SuspiciousFlows: ref.SuspiciousFlows,
			MinSupport: ref.MinSupport, Mining: ref.Mining, ItemSets: ref.ItemSets,
			CostReduction: ref.CostReduction, Suspicious: ref.Suspicious,
		}
		for _, workers := range []int{0, 1, 2, 4, 8} {
			cfg.Workers = workers
			got, err := core.ExtractOffline(cfg, trace[i], ref.Detection.Meta)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d interval %d: ExtractOffline diverged from the oracle\ngot:  %+v\nwant: %+v", workers, i, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no interval carried meta-data; ExtractOffline was never compared")
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
