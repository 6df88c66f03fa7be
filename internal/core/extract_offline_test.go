package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
)

// offlineRecs is a small interval with a dstPort-445 cluster the
// annotations select.
func offlineRecs() []flow.Record {
	recs := make([]flow.Record, 0, 120)
	for i := 0; i < 100; i++ {
		recs = append(recs, flow.Record{
			SrcAddr: uint32(i), DstAddr: 7, DstPort: 445, SrcPort: uint16(1024 + i),
			Protocol: 6, Packets: 3, Bytes: 144,
		})
	}
	for i := 0; i < 20; i++ {
		recs = append(recs, flow.Record{
			SrcAddr: uint32(1000 + i), DstAddr: uint32(i), DstPort: 80,
			SrcPort: uint16(2000 + i), Protocol: 6, Packets: 10, Bytes: 5000,
		})
	}
	return recs
}

func meta445() detector.MetaData {
	m := detector.NewMetaData()
	m.Add(flow.DstPort, 445)
	return m
}

func TestExtractOfflineMinesSuspiciousSet(t *testing.T) {
	recs := offlineRecs()
	rep, err := ExtractOffline(Config{KeepSuspicious: true}, recs, meta445())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Alarm || rep.TotalFlows != len(recs) || rep.SuspiciousFlows != 100 {
		t.Fatalf("counts wrong: %+v", rep)
	}
	if len(rep.Suspicious) != 100 {
		t.Fatalf("KeepSuspicious retained %d flows", len(rep.Suspicious))
	}
	// Default relative support: 5% of 100 suspicious flows.
	if rep.MinSupport != 5 {
		t.Fatalf("MinSupport = %d, want 5", rep.MinSupport)
	}
	if len(rep.ItemSets) == 0 || rep.Mining == nil {
		t.Fatal("no item-sets mined")
	}
	// The shared (dstIP, dstPort, proto, packets, bytes) signature must
	// surface as one high-support maximal set.
	found := false
	for i := range rep.ItemSets {
		if rep.ItemSets[i].Support == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no support-100 item-set in %v", rep.ItemSets)
	}
	if rep.CostReduction != float64(len(recs))/float64(len(rep.ItemSets)) {
		t.Fatalf("CostReduction = %v", rep.CostReduction)
	}
}

func TestExtractOfflineAbsoluteSupportAndQuantize(t *testing.T) {
	rep, err := ExtractOffline(Config{MinSupport: 50}, offlineRecs(), meta445())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinSupport != 50 {
		t.Fatalf("MinSupport = %d, want the absolute 50", rep.MinSupport)
	}
	// Sizes are mined as exact values, never bucketed: the one maximal
	// set carries packets=3 and bytes=144 as the flows do.
	if len(rep.ItemSets) != 1 {
		t.Fatalf("item-sets %v, want one", rep.ItemSets)
	}
	sizes := 0
	for _, it := range rep.ItemSets[0].Items {
		if it.Kind == flow.Packets && it.Value == 3 || it.Kind == flow.Bytes && it.Value == 144 {
			sizes++
		}
	}
	if sizes != 2 {
		t.Fatalf("exact size items missing from %v", rep.ItemSets[0])
	}
}

func TestExtractOfflineEmptySelection(t *testing.T) {
	rep, err := ExtractOffline(Config{}, offlineRecs(), detector.NewMetaData())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SuspiciousFlows != 0 || rep.Mining != nil || len(rep.ItemSets) != 0 {
		t.Fatalf("empty meta still extracted: %+v", rep)
	}
	if !math.IsInf(rep.CostReduction, 1) {
		t.Fatalf("CostReduction = %v, want +Inf for an empty suspicious set", rep.CostReduction)
	}
}

// failingMiner exercises the mining error path.
type failingMiner struct{}

var errMine = errors.New("boom")

func (failingMiner) Mine([]itemset.Transaction, int) (*mining.Result, error) { return nil, errMine }
func (failingMiner) Name() string                                            { return "failing" }

func TestExtractOfflineMinerError(t *testing.T) {
	_, err := ExtractOffline(Config{Miner: failingMiner{}}, offlineRecs(), meta445())
	if !errors.Is(err, errMine) {
		t.Fatalf("err = %v, want wrapped miner error", err)
	}
}

// TestPipelineAbsorbMergesState pins the merge contract of the public
// drain/absorb pair: absorbing a sibling's drained open interval and
// closing yields the report one pipeline over the combined stream
// produces, and leaves the sibling empty.
func TestPipelineAbsorbMergesState(t *testing.T) {
	cfg := Config{Detector: detector.Config{Bins: 128, Seed: 9}}
	mk := func() *Pipeline {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	recs := offlineRecs()
	ref := mk()
	defer ref.Close()
	wantRep, err := ref.ProcessInterval(recs)
	if err != nil {
		t.Fatal(err)
	}

	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	a.ObserveBatch(recs[:len(recs)/2])
	b.ObserveBatch(recs[len(recs)/2:])
	if err := a.AbsorbOpenInterval(b.DrainOpenInterval()); err != nil {
		t.Fatal(err)
	}
	gotRep, err := a.EndInterval()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatalf("absorbed report diverged\ngot:  %+v\nwant: %+v", gotRep, wantRep)
	}
	// The drained sibling is empty and reusable.
	if rep, err := b.EndInterval(); err != nil || rep.TotalFlows != 0 {
		t.Fatalf("sibling not drained: %+v, %v", rep, err)
	}
}
