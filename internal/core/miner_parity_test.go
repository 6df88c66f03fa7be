package core_test

import (
	"reflect"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
)

// TestExtractDegenerateInputs holds the built-in path to the oracle's
// extraction on the inputs the bitset core owns the edges of.
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
			if want := gridtest.OracleExtract(tc.cfg, tc.recs, meta); !reflect.DeepEqual(got, want) {
				t.Fatalf("built-in extraction diverged from the oracle\ngot:  %+v\nwant: %+v", got, want)
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
