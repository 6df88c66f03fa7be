package prefilter

import (
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

func sasserMeta(d *tracegen.SasserData) detector.MetaData {
	m := detector.NewMetaData()
	for _, stage := range d.Meta {
		for _, fv := range stage {
			m.Add(fv.Kind, fv.Value)
		}
	}
	return m
}

func TestUnionCoversAllSasserStages(t *testing.T) {
	d := tracegen.SasserScenario(1, 3000)
	m := sasserMeta(d)
	got := FilterParallel(Union{}, m, d.Flows, 1)
	wantMin := d.StageFlows[0] + d.StageFlows[1] + d.StageFlows[2]
	if len(got) < wantMin {
		t.Fatalf("union selected %d flows, worm injected %d", len(got), wantMin)
	}
	// Every stage must be represented.
	for s, stage := range d.Meta {
		found := false
		for i := range got {
			if got[i].Feature(stage[0].Kind) == stage[0].Value {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("stage %d missing from union selection", s)
		}
	}
}

func TestIntersectionMissesMultistageAnomaly(t *testing.T) {
	// The paper's §II-A argument: the Sasser stages are flow-disjoint,
	// so intersecting the meta-data selects nothing.
	d := tracegen.SasserScenario(1, 3000)
	m := sasserMeta(d)
	if n := Count(Intersection{}, m, d.Flows); n != 0 {
		t.Fatalf("intersection selected %d flows; multistage meta-data should intersect to empty", n)
	}
}

func TestUnionSupersetOfIntersection(t *testing.T) {
	// On single-feature meta-data union == intersection; in general
	// union ⊇ intersection.
	d := tracegen.SasserScenario(2, 2000)
	m := sasserMeta(d)
	u := FilterParallel(Union{}, m, d.Flows, 1)
	i := FilterParallel(Intersection{}, m, d.Flows, 1)
	if len(i) > len(u) {
		t.Fatalf("intersection (%d) larger than union (%d)", len(i), len(u))
	}
	inter := make(map[flow.Record]bool, len(i))
	for _, r := range i {
		inter[r] = true
	}
	uset := make(map[flow.Record]bool, len(u))
	for _, r := range u {
		uset[r] = true
	}
	for r := range inter {
		if !uset[r] {
			t.Fatal("flow in intersection missing from union")
		}
	}
}

func TestUnionRemovesNormalTraffic(t *testing.T) {
	// Prefiltering should eliminate a large share of benign flows
	// ("prefiltering usually removes a large part of the normal
	// traffic").
	d := tracegen.SasserScenario(3, 20000)
	m := sasserMeta(d)
	kept := Count(Union{}, m, d.Flows)
	worm := d.StageFlows[0] + d.StageFlows[1] + d.StageFlows[2]
	benignKept := kept - worm
	if benignKept < 0 {
		benignKept = 0
	}
	total := len(d.Flows)
	if float64(kept)/float64(total) > 0.8 {
		t.Errorf("prefilter kept %d/%d flows, should drop most benign traffic", kept, total)
	}
	t.Logf("kept %d of %d (worm %d, benign leak %d)", kept, total, worm, benignKept)
}

func TestEmptyMetaSelectsNothing(t *testing.T) {
	d := tracegen.SasserScenario(4, 1000)
	m := detector.NewMetaData()
	if n := Count(Union{}, m, d.Flows); n != 0 {
		t.Errorf("empty meta-data selected %d flows under union", n)
	}
	if n := Count(Intersection{}, m, d.Flows); n != 0 {
		t.Errorf("empty meta-data selected %d flows under intersection", n)
	}
}

func TestFilterPreservesOrder(t *testing.T) {
	recs := []flow.Record{
		{DstPort: 445, Start: 1},
		{DstPort: 80, Start: 2},
		{DstPort: 445, Start: 3},
	}
	m := detector.NewMetaData()
	m.Add(flow.DstPort, 445)
	got := FilterParallel(Union{}, m, recs, 1)
	if len(got) != 2 || got[0].Start != 1 || got[1].Start != 3 {
		t.Errorf("order not preserved: %v", got)
	}
}

func TestStrategyNames(t *testing.T) {
	if (Union{}).Name() != "union" || (Intersection{}).Name() != "intersection" {
		t.Error("strategy names wrong")
	}
}
