package core

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/tracegen"
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

// TestExtractOfflineConfigValidation: the offline entry point accepts
// exactly the support and worker settings the pipeline constructor
// accepts. A negative absolute support, a relative support outside
// (0,1] (NaN included) or a negative worker count is an error from
// both, not a silent 5%, an empty mining, a support of 1 or a third
// meaning of Workers; an absolute support, as large as the Table II
// example's, passes both.
func TestExtractOfflineConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"negative absolute support", Config{MinSupport: -1}, false},
		{"relative support above 1", Config{RelativeSupport: 2}, false},
		{"negative relative support", Config{RelativeSupport: -0.5}, false},
		{"NaN relative support", Config{RelativeSupport: math.NaN()}, false},
		{"negative workers", Config{Workers: -3}, false},
		{"defaults", Config{}, true},
		{"absolute support", Config{MinSupport: 10000}, true},
		{"absolute support beside an unused relative one", Config{MinSupport: 50, RelativeSupport: 2}, true},
	} {
		p, errNew := New(tc.cfg)
		if errNew == nil {
			p.Close()
		}
		_, errOffline := ExtractOffline(tc.cfg, offlineRecs(), meta445())
		if (errNew == nil) != tc.ok || (errOffline == nil) != tc.ok {
			t.Errorf("%s: New error %v, ExtractOffline error %v; want accepted %v by both", tc.name, errNew, errOffline, tc.ok)
		}
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

// TestExtractOfflineTableIIAllocation pins what one offline extraction
// of the paper's Table II example allocates: the transposed columns
// (14 MiB), the survivor rows (1.3 MiB), and the miner's per-transaction
// candidate ids and root bitsets, 20.3 MiB in all. A miner that counted
// through a table of at least twice the survivors allocated 38.7 MiB.
func TestExtractOfflineTableIIAllocation(t *testing.T) {
	const limit = 28 << 20
	d := tracegen.TableIIScenario(20071203)
	meta := detector.NewMetaData()
	for _, port := range []uint64{7000, 80, 9022, 25} {
		meta.Add(flow.DstPort, port)
	}
	cfg := Config{MinSupport: d.MinSupport, Workers: 1}
	if _, err := ExtractOffline(cfg, d.Flows, meta); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := ExtractOffline(cfg, d.Flows, meta)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ItemSets) == 0 {
		t.Fatal("no item-sets mined")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("ExtractOffline allocated %.1f MiB", float64(alloc)/(1<<20))
	if alloc > limit {
		t.Errorf("ExtractOffline allocated %d bytes, want at most %d", alloc, limit)
	}
}
