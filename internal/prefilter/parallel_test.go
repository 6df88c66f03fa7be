package prefilter

import (
	"reflect"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/stats"
)

// syntheticRecs builds n low-cardinality records so meta actually
// matches a nontrivial subset.
func syntheticRecs(seed uint64, n int) []flow.Record {
	r := stats.NewRand(seed)
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr: uint32(r.IntN(200)), DstAddr: uint32(r.IntN(50)),
			SrcPort: uint16(r.IntN(400)), DstPort: uint16(r.IntN(30)),
			Protocol: uint8(6 + 11*r.IntN(2)),
			Packets:  uint32(1 + r.IntN(5)), Bytes: uint64(40 * (1 + r.IntN(8))),
			Start: int64(i),
		}
	}
	return recs
}

func syntheticMeta() detector.MetaData {
	m := detector.NewMetaData()
	m.Add(flow.DstPort, 7)
	m.Add(flow.DstPort, 13)
	m.Add(flow.SrcIP, 42)
	m.Add(flow.DstIP, 3)
	return m
}

// TestFilterParallelMatchesSequential is the prefilter determinism
// contract: for every worker count and input size — above and below the
// parallel threshold, divisible by the worker count or not — the chunked
// parallel scan returns byte-identical output to the record-by-record
// reference, in the same order, and SelectBuffer — into fresh and into
// recycled index memory — names exactly those records.
func TestFilterParallelMatchesSequential(t *testing.T) {
	m := syntheticMeta()
	for _, n := range []int{0, 1, 7, 100, minParallelRecords - 1, minParallelRecords, 5000, 8191} {
		recs := syntheticRecs(uint64(n)+1, n)
		for _, s := range []Strategy{Union{}, Intersection{}} {
			want := reference(s, m, recs)
			if gotN := Count(s, m, recs); gotN != len(want) {
				t.Fatalf("%s n=%d: Count = %d, the predicate selected %d", s.Name(), n, gotN, len(want))
			}
			buf := flow.BufferOf(recs)
			dirty := make([]int32, n)
			for _, workers := range []int{0, 1, 2, 3, 4, 8, 64} {
				got := FilterParallel(s, m, recs, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d workers=%d: FilterParallel diverged (got %d recs, want %d)",
						s.Name(), n, workers, len(got), len(want))
				}
				for i := range dirty {
					dirty[i] = int32(i) - 7 // stale contents must not leak into the scan
				}
				for _, dst := range [][]int32{nil, dirty} {
					rows := SelectBuffer(s, m, &buf, workers, dst)
					if got := gather(&buf, rows); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s n=%d workers=%d: SelectBuffer named %d rows, the predicate selected %d",
							s.Name(), n, workers, len(rows), len(want))
					}
					if dst != nil && n > 0 && &rows[:1][0] != &dst[0] {
						t.Fatalf("%s n=%d workers=%d: SelectBuffer did not reuse dst", s.Name(), n, workers)
					}
				}
			}
		}
	}
}

// TestFilterParallelPreservesOrder pins the range-order concatenation:
// matches come back in input order even when every chunk contributes.
func TestFilterParallelPreservesOrder(t *testing.T) {
	recs := make([]flow.Record, 4*minParallelRecords)
	for i := range recs {
		recs[i] = flow.Record{DstPort: uint16(i % 2 * 445), Start: int64(i)}
	}
	m := detector.NewMetaData()
	m.Add(flow.DstPort, 445)
	got := FilterParallel(Union{}, m, recs, 8)
	if len(got) != len(recs)/2 {
		t.Fatalf("selected %d of %d", len(got), len(recs))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start <= got[i-1].Start {
			t.Fatalf("order violated at %d: %d after %d", i, got[i].Start, got[i-1].Start)
		}
	}
}

// TestParallelNoMatchesReturnsNil: an empty parallel selection is nil,
// as an empty sequential one is.
func TestParallelNoMatchesReturnsNil(t *testing.T) {
	recs := syntheticRecs(3, 3*minParallelRecords)
	m := detector.NewMetaData()
	m.Add(flow.DstPort, 65000) // never generated
	if got := FilterParallel(Union{}, m, recs, 4); got != nil {
		t.Fatalf("expected nil for no matches, got %d records", len(got))
	}
	buf := flow.BufferOf(recs)
	if rows := SelectBuffer(Union{}, m, &buf, 4, nil); len(rows) != 0 {
		t.Fatalf("SelectBuffer named %d rows, want 0", len(rows))
	}
}
