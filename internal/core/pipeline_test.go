package core

import (
	"math"
	"slices"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/mining/eclat"
	"anomalyx/internal/mining/fpgrowth"
	"anomalyx/internal/stats"
	"anomalyx/internal/tracegen"
)

func testConfig() Config {
	return Config{
		Features: []flow.FeatureKind{flow.DstIP, flow.DstPort, flow.Packets},
		Detector: detector.Config{
			Bins: 256, Clones: 3, Votes: 3, TrainIntervals: 8,
		},
		RelativeSupport: 0.05,
	}
}

// synthInterval produces n stable benign flows plus optionally nAnom
// flood flows toward one victim.
func synthInterval(p *Pipeline, r *stats.Rand, n, nAnom int) (*Report, error) {
	for i := 0; i < nAnom; i++ {
		p.Observe(flow.Record{
			SrcAddr: uint32(r.IntN(1 << 30)), DstAddr: 0x0a0a0a0a,
			SrcPort: uint16(1024 + r.IntN(60000)), DstPort: 7000,
			Protocol: 6, Packets: 1, Bytes: 40,
		})
	}
	for i := 0; i < n; i++ {
		p.Observe(flow.Record{
			SrcAddr: uint32(r.IntN(4096)), DstAddr: uint32(r.IntN(512)),
			SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1000)),
			Protocol: 6, Packets: uint32(1 + r.IntN(20)), Bytes: uint64(100 + r.IntN(5000)),
		})
	}
	return p.EndInterval()
}

func TestPipelineConfigValidation(t *testing.T) {
	if _, err := New(Config{MinSupport: -1}); err == nil {
		t.Error("negative support accepted")
	}
	if _, err := New(Config{RelativeSupport: 1.5}); err == nil {
		t.Error("relative support > 1 accepted")
	}
	if _, err := New(Config{Detector: detector.Config{Clones: 1, Votes: 2}}); err == nil {
		t.Error("bad detector config accepted")
	}
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Config().RelativeSupport != 0.05 {
		t.Error("defaults not applied")
	}
	// A nil Miner is the default: it selects the built-in columnar Eclat.
	if m := p.Config().Miner; m != nil {
		t.Errorf("default miner %q, want none", m.Name())
	}
}

func TestPipelineEndToEndExtractsFlood(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(1)
	for i := 0; i < 20; i++ {
		rep, err := synthInterval(p, r, 5000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalFlows != 5000 {
			t.Fatalf("TotalFlows = %d", rep.TotalFlows)
		}
	}
	rep, err := synthInterval(p, r, 5000, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Alarm {
		t.Fatal("flood not detected")
	}
	if rep.SuspiciousFlows == 0 {
		t.Fatal("prefilter selected nothing")
	}
	if rep.SuspiciousFlows > rep.TotalFlows/2 {
		t.Errorf("prefilter kept %d of %d flows; should remove most benign traffic",
			rep.SuspiciousFlows, rep.TotalFlows)
	}
	if len(rep.ItemSets) == 0 {
		t.Fatal("no item-sets extracted")
	}
	// The top item-set must pinpoint the flood.
	found := false
	for i := range rep.ItemSets {
		hasVictim, hasPort := false, false
		for _, it := range rep.ItemSets[i].Items {
			if it.Kind == flow.DstIP && it.Value == 0x0a0a0a0a {
				hasVictim = true
			}
			if it.Kind == flow.DstPort && it.Value == 7000 {
				hasPort = true
			}
		}
		if hasVictim && hasPort {
			found = true
		}
	}
	if !found {
		t.Errorf("flood item-set not extracted: %v", rep.ItemSets)
	}
	if rep.CostReduction <= 1 {
		t.Errorf("cost reduction %v, want > 1", rep.CostReduction)
	}
	if math.IsInf(rep.CostReduction, 1) {
		t.Error("cost reduction infinite despite item-sets")
	}
}

func TestPipelineQuietIntervalNoMining(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(2)
	var last *Report
	for i := 0; i < 15; i++ {
		rep, err := synthInterval(p, r, 4000, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = rep
	}
	if last.Alarm {
		t.Skip("rare benign alarm; acceptable at 3 sigma")
	}
	if last.Mining != nil || len(last.ItemSets) != 0 || last.SuspiciousFlows != 0 {
		t.Error("quiet interval should not mine")
	}
}

func TestPipelineBufferCleared(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(3)
	rep1, _ := synthInterval(p, r, 1000, 0)
	rep2, _ := synthInterval(p, r, 2000, 0)
	if rep1.TotalFlows != 1000 || rep2.TotalFlows != 2000 {
		t.Errorf("buffer leak: %d then %d", rep1.TotalFlows, rep2.TotalFlows)
	}
}

func TestPipelineKeepSuspicious(t *testing.T) {
	cfg := testConfig()
	cfg.KeepSuspicious = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(4)
	for i := 0; i < 20; i++ {
		synthInterval(p, r, 5000, 0)
	}
	rep, err := synthInterval(p, r, 5000, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Alarm {
		t.Fatal("no alarm")
	}
	if len(rep.Suspicious) != rep.SuspiciousFlows {
		t.Errorf("kept %d flows, reported %d", len(rep.Suspicious), rep.SuspiciousFlows)
	}
}

func TestPipelineAbsoluteSupport(t *testing.T) {
	cfg := testConfig()
	cfg.MinSupport = 1200
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(5)
	for i := 0; i < 20; i++ {
		synthInterval(p, r, 5000, 0)
	}
	rep, err := synthInterval(p, r, 5000, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Alarm {
		t.Fatal("no alarm")
	}
	if rep.MinSupport != 1200 {
		t.Errorf("MinSupport = %d, want 1200", rep.MinSupport)
	}
	for i := range rep.ItemSets {
		if rep.ItemSets[i].Support < 1200 {
			t.Errorf("item-set below support: %v", rep.ItemSets[i])
		}
	}
}

func TestPipelineAlternativeMiners(t *testing.T) {
	for _, m := range []Config{
		{Miner: fpgrowth.New()},
		{Miner: eclat.New()},
	} {
		cfg := testConfig()
		cfg.Miner = m.Miner
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRand(6)
		for i := 0; i < 20; i++ {
			synthInterval(p, r, 4000, 0)
		}
		rep, err := synthInterval(p, r, 4000, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Alarm || len(rep.ItemSets) == 0 {
			t.Errorf("miner %s failed to extract", cfg.Miner.Name())
		}
	}
}

func TestExtractOffline(t *testing.T) {
	d := tracegen.SasserScenario(7, 4000)
	meta := detector.NewMetaData()
	for _, stage := range d.Meta {
		for _, fv := range stage {
			meta.Add(fv.Kind, fv.Value)
		}
	}
	cfg := Config{RelativeSupport: 0.02}
	rep, err := ExtractOffline(cfg, d.Flows, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SuspiciousFlows == 0 {
		t.Fatal("offline extraction selected nothing")
	}
	if len(rep.ItemSets) == 0 {
		t.Fatal("offline extraction mined nothing")
	}
	// The scan stage (the biggest) must surface: dstPort 445.
	found := false
	for i := range rep.ItemSets {
		for _, it := range rep.ItemSets[i].Items {
			if it.Kind == flow.DstPort && it.Value == tracegen.SasserScanPort {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("scan stage not in item-sets: %v", rep.ItemSets)
	}
}

func TestExtractOfflineEmptyMeta(t *testing.T) {
	rep, err := ExtractOffline(Config{}, []flow.Record{{DstPort: 80}}, detector.NewMetaData())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SuspiciousFlows != 0 || rep.Mining != nil {
		t.Error("empty meta-data should select and mine nothing")
	}
}

func TestPipelineEmptyIntervals(t *testing.T) {
	// Intervals with zero flows must not panic or produce NaN state;
	// detection over empty histograms is a no-op.
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		rep, err := p.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalFlows != 0 {
			t.Fatal("phantom flows")
		}
		if rep.Alarm {
			t.Fatal("alarm on empty traffic")
		}
	}
	// Traffic appearing after a long silence behaves sanely too.
	r := stats.NewRand(9)
	rep, err := synthInterval(p, r, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = rep // first real interval may alarm (silence -> traffic is a change); no panic is the contract
}

func TestPipelineSingleFlowInterval(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		p.Observe(flow.Record{DstPort: 80, Protocol: 6, Packets: 1, Bytes: 40})
		if _, err := p.EndInterval(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestObserveBufferScattersByShardOf pins the partitioned ingest's
// scatter: every row of a column chunk lands in the buffer of the
// partition ShardOf names for its record, in chunk order, and each
// partition's bank counts exactly its own rows.
func TestObserveBufferScattersByShardOf(t *testing.T) {
	p, err := NewPartitioned(testConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := stats.NewRand(5)
	recs := make([]flow.Record, 700) // above minParallelBatch: the fan-out runs
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr: uint32(r.IntN(4096)), DstAddr: uint32(r.IntN(512)),
			SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1000)), Protocol: 6, Packets: 1,
		}
	}
	chunk := flow.BufferOf(recs)
	p.ObserveBuffer(&chunk)
	want := make([][]flow.Record, 3)
	for i := range recs {
		s := p.ShardOf(&recs[i])
		want[s] = append(want[s], recs[i])
	}
	for s, buf := range p.buffers {
		if got := buf.Records(); !slices.Equal(got, want[s]) {
			t.Fatalf("partition %d holds %d rows, want its %d ShardOf rows in order", s, len(got), len(want[s]))
		}
		if n := p.banks[s].LiveInterval()[0].Total(); n != uint64(len(want[s])) {
			t.Fatalf("partition %d's bank counted %d rows, want %d", s, n, len(want[s]))
		}
	}
}
