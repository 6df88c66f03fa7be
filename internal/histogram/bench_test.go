package histogram

import (
	"fmt"
	"testing"

	"anomalyx/internal/hash"
)

// benchValues is a deterministic pseudo-random value population shaped
// like an interval's worth of one feature: n draws from a space of
// width distinct values (so bins collect multiple values and values
// repeat, as ports and addresses do).
func benchValues(n int, width uint64) []uint64 {
	vals := make([]uint64, n)
	state := uint64(0x2545F4914F6CDD1D)
	for i := range vals {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		vals[i] = state % width
	}
	return vals
}

// BenchmarkHistogramAddTracked measures steady-state tracked ingestion
// (one table insert per add, whatever the clone count): the first
// interval warms the value table's arena, Reset recycles it,
// and every subsequent interval's adds must allocate nothing (0 B/op —
// the acceptance bar for the arena refactor). The i%len wrap plus the
// periodic Reset reproduce the per-interval lifecycle inside the timer.
func BenchmarkHistogramAddTracked(b *testing.B) {
	h := New(1024, hash.New(1), true)
	vals := benchValues(20_000, 50_000)
	for _, v := range vals { // interval 0: warm the arena
		h.Add(v)
	}
	h.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j := i % len(vals); j == 0 {
			h.Reset()
			h.Add(vals[0])
		} else {
			h.Add(vals[j])
		}
	}
}

// BenchmarkSnapshotRestore measures the canonical per-clone snapshots of
// a three-clone set (one value sort, then each clone's stable grouping by
// bin) — into fresh memory, and into memory reused call to call as an
// agent's drain does — and the bulk arena restore, the two halves of the
// wire path's per-interval state copy.
func BenchmarkSnapshotRestore(b *testing.B) {
	s := NewCloneSet(1024, testFns(3))
	for _, v := range benchValues(20_000, 50_000) {
		s.Add(v)
	}
	ss := s.Snapshots()
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Snapshots()
		}
	})
	b.Run("snapshot-into", func(b *testing.B) {
		var m SnapshotMemory
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.SnapshotsInto(&m)
		}
	})
	b.Run("restore", func(b *testing.B) {
		r := NewCloneSet(1024, testFns(3))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := restore(r, ss); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCloneSetBin measures the close-time derivation of n clones'
// bin counts from one value table holding an interval's worth of
// distinct values — the sweep that replaced per-record bin increments
// on ingest.
func BenchmarkCloneSetBin(b *testing.B) {
	vals := benchValues(20_000, 50_000)
	for _, clones := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("clones=%d", clones), func(b *testing.B) {
			s := NewCloneSet(1024, testFns(clones))
			for _, v := range vals {
				s.Add(v)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.stale = true
				s.bin()
			}
		})
	}
}
