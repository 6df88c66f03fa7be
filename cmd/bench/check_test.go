package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"anomalyx"
)

func TestGoldenRoundTrip(t *testing.T) {
	g := &golden{Seed: defaultSeed, Sizes: defaultSizes}
	g.merge("flood_extract", facts{"digest": "abc", "alarm_intervals": "35"})
	g.merge("flood_extract", facts{"frame_bytes": "1024"}) // the traced run adds its own
	g.merge("tableii_offline", facts{"maximal_itemsets": "12"})

	path := filepath.Join(t.TempDir(), "golden.json")
	if err := g.save(path); err != nil {
		t.Fatal(err)
	}
	back, err := loadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, g) {
		t.Fatalf("round trip: %+v != %+v", back, g)
	}
	if !back.applies(defaultSeed, defaultSizes) || back.applies(defaultSeed+1, defaultSizes) {
		t.Error("a golden record applies to its own seed and sizes only")
	}
	small := defaultSizes
	small.BaseFlows = 300
	if back.applies(defaultSeed, small) {
		t.Error("a golden record must not be held against a run of another size")
	}

	if d := back.diff("flood_extract", facts{"digest": "abc", "alarm_intervals": "35"}); len(d) != 0 {
		t.Errorf("equal facts differ: %v", d)
	}
	d := back.diff("flood_extract", facts{"digest": "xyz", "alarm_intervals": "35", "unknown_to_golden": "1"})
	if len(d) != 1 || !strings.Contains(d[0], "digest") {
		t.Errorf("diff = %v, want the digest only", d)
	}
	if d := back.diff("no_such_workload", facts{"digest": "abc"}); len(d) != 0 {
		t.Errorf("a workload without a record has nothing to differ from: %v", d)
	}
}

// The committed record must be the one the harness would write: same
// seed, same sizes, every workload present.
func TestCommittedGolden(t *testing.T) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		t.Fatal(err)
	}
	if !g.applies(defaultSeed, defaultSizes) {
		t.Fatalf("golden.json is for seed %d sizes %+v; the defaults are %d %+v", g.Seed, g.Sizes, uint64(defaultSeed), defaultSizes)
	}
	for _, wl := range workloads {
		if g.Facts[wl.name]["digest"] == "" {
			t.Errorf("golden.json has no digest for %s", wl.name)
		}
	}
	// The determinism contract: the same records give the same reports
	// through one pipeline, two pipelined shards, and two agents.
	flood := g.Facts["flood_extract"]["digest"]
	for _, name := range []string{"sharded_pipelined", "agents_loopback"} {
		if got := g.Facts[name]["digest"]; got != flood {
			t.Errorf("%s digest %s differs from flood_extract's %s", name, got, flood)
		}
	}
	onDisk, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(goldenJSON) {
		t.Error("embedded golden.json differs from the file on disk")
	}
}

func TestRenderReportCoversTheReport(t *testing.T) {
	rep := &anomalyx.Report{Interval: 3, Alarm: true, TotalFlows: 10, SuspiciousFlows: 4, MinSupport: 2}
	rep.Detection.Meta = anomalyx.NewMetaData()
	rep.Detection.Meta.Add(anomalyx.DstPort, 7000)
	rep.ItemSets = []anomalyx.ItemSet{{Items: []anomalyx.Item{{Kind: anomalyx.DstPort, Value: 7000}}, Support: 4}}
	base := digestReports([]*anomalyx.Report{rep})

	changed := *rep
	changed.Suspicious = []anomalyx.Flow{{SrcPort: 1}}
	if digestReports([]*anomalyx.Report{&changed}) != base {
		t.Error("the KeepSuspicious slice is outside the determinism contract and must not reach the digest")
	}
	for name, mutate := range map[string]func(r *anomalyx.Report){
		"TotalFlows": func(r *anomalyx.Report) { r.TotalFlows++ },
		"MinSupport": func(r *anomalyx.Report) { r.MinSupport++ },
		"Partial":    func(r *anomalyx.Report) { r.Partial = []int{1} },
		"ItemSets":   func(r *anomalyx.Report) { r.ItemSets = nil },
		"Meta": func(r *anomalyx.Report) {
			r.Detection.Meta = anomalyx.NewMetaData()
			r.Detection.Meta.Add(anomalyx.DstPort, 80)
		},
	} {
		changed := *rep
		mutate(&changed)
		if digestReports([]*anomalyx.Report{&changed}) == base {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
}
