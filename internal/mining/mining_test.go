package mining

import (
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
)

func set(support int, items ...itemset.Item) itemset.Set {
	return itemset.NewSet(items, support)
}

func TestFilterMaximal(t *testing.T) {
	all := []itemset.Set{
		set(100, itemset.Item{Kind: flow.DstPort, Value: 7000}),
		set(100, itemset.Item{Kind: flow.Proto, Value: 6}),
		set(100, itemset.Item{Kind: flow.DstPort, Value: 7000}, itemset.Item{Kind: flow.Proto, Value: 6}),
		set(50, itemset.Item{Kind: flow.DstPort, Value: 25}),
	}
	max := FilterMaximal(all)
	if len(max) != 2 {
		t.Fatalf("got %d maximal sets: %v", len(max), max)
	}
	// The 2-item-set and the lone dstPort=25 survive.
	foundPair, found25 := false, false
	for i := range max {
		switch max[i].Size() {
		case 2:
			foundPair = true
		case 1:
			if max[i].Items[0].Value == 25 {
				found25 = true
			}
		}
	}
	if !foundPair || !found25 {
		t.Errorf("wrong maximal sets: %v", max)
	}
}

func TestFilterMaximalEmptyAndSingle(t *testing.T) {
	if got := FilterMaximal(nil); len(got) != 0 {
		t.Error("empty input should give empty output")
	}
	one := []itemset.Set{set(5, itemset.Item{Kind: flow.DstPort, Value: 80})}
	if got := FilterMaximal(one); len(got) != 1 {
		t.Errorf("single set should be maximal: %v", got)
	}
}

func TestFilterMaximalDeepChain(t *testing.T) {
	// A chain {a} ⊂ {a,b} ⊂ {a,b,c}: only the largest is maximal.
	a := itemset.Item{Kind: flow.SrcIP, Value: 1}
	b := itemset.Item{Kind: flow.DstIP, Value: 2}
	c := itemset.Item{Kind: flow.DstPort, Value: 3}
	all := []itemset.Set{set(9, a), set(8, a, b), set(7, a, b, c), set(8, b)}
	max := FilterMaximal(all)
	if len(max) != 1 || max[0].Size() != 3 {
		t.Fatalf("maximal = %v, want only the 3-item-set", max)
	}
}

func TestBuildResultLevels(t *testing.T) {
	a := itemset.Item{Kind: flow.SrcIP, Value: 1}
	b := itemset.Item{Kind: flow.DstIP, Value: 2}
	all := []itemset.Set{set(9, a), set(8, b), set(7, a, b)}
	res := BuildResult(all, 100, 5)
	if res.Transactions != 100 || res.MinSupport != 5 {
		t.Error("metadata wrong")
	}
	if len(res.Levels) != 2 {
		t.Fatalf("levels %v", res.Levels)
	}
	if res.Levels[0].Frequent != 2 || res.Levels[0].Maximal != 0 {
		t.Errorf("level 1 stats %+v", res.Levels[0])
	}
	if res.Levels[1].Frequent != 1 || res.Levels[1].Maximal != 1 {
		t.Errorf("level 2 stats %+v", res.Levels[1])
	}
	if len(res.Maximal) != 1 {
		t.Errorf("maximal %v", res.Maximal)
	}
	// Sorted by support descending.
	if res.All[0].Support < res.All[1].Support {
		t.Error("All not sorted")
	}
}

func TestValidateInput(t *testing.T) {
	if err := ValidateInput(nil, 0); err == nil {
		t.Error("minsup 0 accepted")
	}
	if err := ValidateInput(nil, -3); err == nil {
		t.Error("negative minsup accepted")
	}
	if err := ValidateInput(nil, 1); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

func TestTopK(t *testing.T) {
	sets := []itemset.Set{
		set(30, itemset.Item{Kind: flow.DstPort, Value: 1}),
		set(20, itemset.Item{Kind: flow.DstPort, Value: 2}),
		set(10, itemset.Item{Kind: flow.DstPort, Value: 3}),
	}
	if got := TopK(sets, 2); len(got) != 2 || got[0].Support != 30 {
		t.Errorf("TopK(2) = %v", got)
	}
	if got := TopK(sets, 10); len(got) != 3 {
		t.Errorf("TopK(10) = %v", got)
	}
}

func TestEqual(t *testing.T) {
	a := itemset.Item{Kind: flow.SrcIP, Value: 1}
	b := itemset.Item{Kind: flow.DstIP, Value: 2}
	r1 := BuildResult([]itemset.Set{set(9, a), set(7, a, b)}, 10, 2)
	r2 := BuildResult([]itemset.Set{set(7, a, b), set(9, a)}, 10, 2)
	if !Equal(r1, r2) {
		t.Error("order must not matter")
	}
	r3 := BuildResult([]itemset.Set{set(8, a), set(7, a, b)}, 10, 2)
	if Equal(r1, r3) {
		t.Error("different supports must differ")
	}
	r4 := BuildResult([]itemset.Set{set(9, a)}, 10, 2)
	if Equal(r1, r4) {
		t.Error("different sizes must differ")
	}
}
