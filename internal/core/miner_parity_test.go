package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/mining/eclat"
	"anomalyx/internal/mining/fpgrowth"
	"anomalyx/internal/prefilter"
)

// runTrace closes every interval of trace on a fresh partitioned pipeline:
// inline at depth 1; at depth 2 the pipelined way, each interval's finish
// running only after the next interval has been observed and drained.
func runTrace(t *testing.T, cfg core.Config, shards, depth int, trace [][]flow.Record) []*core.Report {
	t.Helper()
	sp, err := core.NewPartitioned(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	var reps []*core.Report
	var pending *core.PendingClose
	finish := func() {
		if pending == nil {
			return
		}
		rep, err := pending.Finish()
		if err != nil {
			t.Fatal(err)
		}
		reps, pending = append(reps, rep), nil
	}
	for _, recs := range trace {
		if depth == 1 {
			rep, err := sp.ProcessInterval(recs)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
			continue
		}
		sp.ObserveBatch(recs)
		pc, err := sp.BeginClose()
		if err != nil {
			t.Fatal(err)
		}
		finish()
		pending = pc
	}
	finish()
	return reps
}

// TestBuiltinMinerMatchesInjected is the differential test for the one
// fork in the extraction stage: over a seeded trace, the built-in path
// (nil Miner: bitset Eclat straight off the buffer columns) and the
// compatibility path (an injected Apriori, FP-Growth or row-form Eclat
// fed transactions built by survivor index) must produce deeply equal
// reports — Report.Mining included — for both prefilter strategies,
// across shard counts and close depths.
func TestBuiltinMinerMatchesInjected(t *testing.T) {
	trace := diffTrace(10, 3000, 8)
	injected := []mining.Miner{apriori.New(), fpgrowth.New(), eclat.New()}
	for _, strategy := range []prefilter.Strategy{prefilter.Union{}, prefilter.Intersection{}} {
		for _, shards := range []int{1, 2, 4} {
			for _, depth := range []int{1, 2} {
				name := fmt.Sprintf("%s/shards=%d/depth=%d", strategy.Name(), shards, depth)
				cfg := core.Config{
					Detector:  detector.Config{Bins: 256, TrainIntervals: 4, Seed: 3},
					Prefilter: strategy,
					Workers:   1,
				}
				want := runTrace(t, cfg, shards, depth, trace)
				mined := 0
				for _, rep := range want {
					if rep.Mining != nil {
						mined++
					}
				}
				if mined == 0 {
					t.Fatalf("%s: no interval was mined; the paths were never compared", name)
				}
				for _, m := range injected {
					cfg.Miner = m
					got := runTrace(t, cfg, shards, depth, trace)
					for i := range want {
						if !reflect.DeepEqual(got[i].Mining, want[i].Mining) {
							t.Fatalf("%s interval %d: %s mined\n%+v\nbuilt-in path mined\n%+v", name, i, m.Name(), got[i].Mining, want[i].Mining)
						}
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("%s interval %d: report diverged under %s", name, i, m.Name())
						}
					}
				}
			}
		}
	}
}

// TestExtractDegenerateInputs holds the built-in path to the row-form
// reference on the inputs the bitset core newly owns the edges of.
func TestExtractDegenerateInputs(t *testing.T) {
	// flood returns n flows to port 445 whose other features repeat with
	// period distinct (distinct == n makes every row unique).
	flood := func(n, distinct int) []flow.Record {
		recs := make([]flow.Record, n)
		for i := range recs {
			v := i % distinct
			recs[i] = flow.Record{
				SrcAddr: uint32(v), DstAddr: uint32(v + 7), SrcPort: uint16(v), DstPort: 445,
				Protocol: uint8(v), Packets: uint32(v + 1), Bytes: uint64(v+1) * 40,
			}
		}
		return recs
	}
	// Packets 4..7 and bytes 64..127: no size value reaches support 20.
	buckets := flood(40, 40)
	for i := range buckets {
		buckets[i].Packets, buckets[i].Bytes = uint32(4+i%4), uint64(64+i%64)
	}
	meta := detector.NewMetaData()
	meta.Add(flow.DstPort, 445)
	cases := []struct {
		name string
		cfg  core.Config
		recs []flow.Record
	}{
		{"no survivors", core.Config{}, []flow.Record{{DstPort: 80}, {DstPort: 81}}},
		{"no flows", core.Config{}, nil},
		{"one survivor", core.Config{}, append(flood(1, 1), flow.Record{DstPort: 80})},
		{"63 survivors", core.Config{}, flood(63, 5)},
		{"64 survivors", core.Config{}, flood(64, 5)},
		{"65 survivors", core.Config{}, flood(65, 5)},
		{"1000 survivors", core.Config{}, flood(1000, 13)},
		{"minsup above n", core.Config{MinSupport: 200}, flood(130, 3)},
		{"minsup 1, all rows distinct", core.Config{MinSupport: 1}, flood(70, 70)},
		{"exact sizes fragment", core.Config{MinSupport: 20}, buckets},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.KeepSuspicious = true
			got, err := core.ExtractOffline(tc.cfg, tc.recs, meta)
			if err != nil {
				t.Fatal(err)
			}
			if want := rowFormExtract(t, tc.cfg, tc.recs, meta); !reflect.DeepEqual(got, want) {
				t.Fatalf("built-in extraction diverged from the row-form reference\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
	// Sizes are mined as exact values: the fragmented ones stay below
	// the support.
	rep, err := core.ExtractOffline(core.Config{MinSupport: 20}, buckets, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range rep.Mining.All {
		if set.Size() == 1 && (set.Items[0].Kind == flow.Packets || set.Items[0].Kind == flow.Bytes) {
			t.Errorf("fragmented size item %v reached the support", set)
		}
	}
}
