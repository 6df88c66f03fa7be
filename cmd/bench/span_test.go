package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},           // 0
		{Name: "a.seq1", Parent: 0, Start: 10, End: 30},          // 1: sequential children
		{Name: "a.seq2", Parent: 0, Start: 30, End: 50},          // 2
		{Name: "b.nested", Parent: 1, Start: 12, End: 20},        // 3: grandchild, charged to 1 only
		{Name: "c.overlap1", Parent: 2, Start: 32, End: 44},      // 4: overlapping children of 2
		{Name: "c.overlap2", Parent: 2, Start: 40, End: 48},      // 5
		{Name: "d.outside", Parent: 0, Start: 90, End: 130},      // 6: runs past its parent, clipped
		{Name: "e.contained", Parent: 2, Start: 41, End: 43},     // 7: wholly inside sibling 4
		{Name: "other", Parent: -1, Start: 200, End: 260, N: 12}, // 8: a second root
	}
	want := []int64{
		100 - 20 - 20 - 10, // children cover [10,50) and [90,100)
		20 - 8,
		20 - 16, // union of [32,44), [40,48), [41,43) is [32,48)
		8, 12, 8, 40, 2, 60,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	byLayer := layerSelf(spans)
	if byLayer["a"] != 12+4 || byLayer["c"] != 12+8 || byLayer["root"] != 50 {
		t.Errorf("layerSelf = %v", byLayer)
	}
}

func TestTracerNestsAndWrites(t *testing.T) {
	tr := newTracer()
	tr.interval = 7
	outer := tr.begin("core.end_interval")
	inner := tr.begin("mining.mine")
	tr.end(inner, 42)
	tr.end(outer, 1)
	next := tr.begin("flow.append")
	tr.end(next, 512)

	if len(tr.spans) != 3 || len(tr.stack) != 0 {
		t.Fatalf("spans %d, open %d", len(tr.spans), len(tr.stack))
	}
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || tr.spans[next].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Interval != 7 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	if tr.spans[inner].N != 42 || tr.spans[inner].layer() != "mining" {
		t.Errorf("inner span %+v", tr.spans[inner])
	}

	var buf bytes.Buffer
	if err := writeSpans(&buf, tr.spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d JSON lines, want 3", len(lines))
	}
	var back span
	if err := json.Unmarshal([]byte(lines[1]), &back); err != nil {
		t.Fatal(err)
	}
	if back != tr.spans[1] {
		t.Errorf("round trip: %+v != %+v", back, tr.spans[1])
	}
}

func TestByName(t *testing.T) {
	spans := []span{
		{Name: "mining.mine", Interval: 0, Start: 0, End: 2e6, N: 1000},
		{Name: "mining.mine", Interval: 1, Start: 0, End: 4e6, N: 3000},
		{Name: "flow.append", Interval: 1, Start: 0, End: 10, N: 5},
	}
	all := byName(spans, nil)
	if st := all["mining.mine"]; st.calls != 2 || st.nsPer() != 1500 || median(st.durMs) != 3 {
		t.Errorf("mining.mine: %+v", st)
	}
	odd := byName(spans, func(s span) bool { return s.Interval == 1 })
	if st := odd["mining.mine"]; st.calls != 1 || st.n != 3000 {
		t.Errorf("filtered mining.mine: %+v", st)
	}
}
