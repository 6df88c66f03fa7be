package shard

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
)

// TestShardOfStableAndSpread verifies the partitioner: equal flow keys
// always land in the same shard, and a realistic trace actually spreads
// across all shards (no degenerate hashing).
func TestShardOfStableAndSpread(t *testing.T) {
	sp, err := New(Config{Shards: 4, Pipeline: gridtest.Config()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	trace := gridtest.Trace(1, 4000, -1)
	counts := make([]int, 4)
	for i := range trace[0] {
		rec := trace[0][i]
		sh := sp.ShardOf(&rec)
		counts[sh]++
		clone := rec
		clone.Packets, clone.Bytes, clone.Start = 999, 999, 999 // non-key fields
		if got := sp.ShardOf(&clone); got != sh {
			t.Fatalf("shard assignment depends on non-key fields: %d vs %d", got, sh)
		}
	}
	for sh, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no flows of %d: degenerate partitioning %v",
				sh, len(trace[0]), counts)
		}
	}
}

// TestShardedConcurrentProducers exercises the race-freedom of parallel
// ingestion: several goroutines ObserveBatch disjoint slices of an
// interval concurrently, and the lockstep close must still match the
// sequential reference (detection and extraction are ingestion-order
// insensitive). Run with -race.
func TestShardedConcurrentProducers(t *testing.T) {
	trace := gridtest.Trace(10, 1500, 8)

	sp, err := New(Config{Shards: 4, Pipeline: gridtest.Config()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	var got []*core.Report
	for _, recs := range trace {
		const producers = 4
		var wg sync.WaitGroup
		chunk := (len(recs) + producers - 1) / producers
		for p := 0; p < producers; p++ {
			lo := p * chunk
			hi := min(lo+chunk, len(recs))
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(part []flow.Record) {
				defer wg.Done()
				sp.ObserveBatch(part)
			}(recs[lo:hi])
		}
		wg.Wait()
		rep, err := sp.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rep)
	}
	gridtest.Equal(t, got, gridtest.Reference(t, gridtest.Config(), trace), 4)
}

// TestNewDefaults pins the defaulting the sharded entry points rely on:
// Shards 0 means GOMAXPROCS partitions, and Pipeline.Workers 0 means
// sequential detector banks — at one shard too, which an agent session
// at its default worker count builds.
func TestNewDefaults(t *testing.T) {
	recs := gridtest.Trace(1, 4000, -1)[0]
	for _, tc := range []struct{ shards, want int }{{0, runtime.GOMAXPROCS(0)}, {1, 1}, {3, 3}} {
		sp, err := New(Config{Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for i := range recs {
			seen[sp.ShardOf(&recs[i])] = true
		}
		if len(seen) != tc.want || !seen[tc.want-1] {
			t.Errorf("Shards %d: records spread over partitions %v, want 0..%d", tc.shards, seen, tc.want-1)
		}
		if w, want := sp.Config().Workers, max(1, runtime.GOMAXPROCS(0)/tc.want); w != want {
			t.Errorf("Shards %d: Workers %d, want %d", tc.shards, w, want)
		}
		sp.Close()
	}
	sp, err := New(Config{Shards: 2, Pipeline: core.Config{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if w := sp.Config().Workers; w != 3 {
		t.Errorf("explicit Workers 3 became %d", w)
	}
}

// TestWorkersDefault pins the one meaning of a zero Workers: both
// partitioned constructors resolve it to max(1, GOMAXPROCS / partitions)
// and report the resolved count, which the detector banks and the
// prefilter scan then share.
func TestWorkersDefault(t *testing.T) {
	for _, b := range []struct {
		name  string
		build func(n int) (*core.Pipeline, error)
	}{
		{"core.NewPartitioned", func(n int) (*core.Pipeline, error) { return core.NewPartitioned(core.Config{}, n) }},
		{"shard.New", func(n int) (*core.Pipeline, error) { return New(Config{Shards: n}) }},
	} {
		for _, n := range []int{1, 2, 4} {
			p, err := b.build(n)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.Config().Workers, max(1, runtime.GOMAXPROCS(0)/n); got != want {
				t.Errorf("%s over %d partitions: Workers %d, want %d", b.name, n, got, want)
			}
			p.Close()
		}
	}
}

// TestShardedRejectsNegative covers config validation.
func TestShardedRejectsNegative(t *testing.T) {
	if _, err := New(Config{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := New(Config{Shards: 2, Pipeline: core.Config{MinSupport: -5}}); err == nil {
		t.Fatal("invalid pipeline config accepted")
	}
}

// BenchmarkShardedPipeline sweeps the shard count over one interval's
// ingestion plus the lockstep close. On multi-core hardware throughput
// scales with shards until the cores are saturated; -cpu sweeps contrast
// the fan-out with the single-threaded baseline.
func BenchmarkShardedPipeline(b *testing.B) {
	trace := gridtest.Trace(1, 20000, -1)
	recs := trace[0]
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sp, err := New(Config{Shards: shards, Pipeline: gridtest.Config()})
			if err != nil {
				b.Fatal(err)
			}
			defer sp.Close()
			b.SetBytes(int64(len(recs)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.ProcessInterval(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestShardedDrainOpenInterval: draining a sharded pipeline merges every
// shard's open interval into one — absorbing it elsewhere reproduces a
// plain pipeline's report over the same records — and leaves all shards
// empty for the next interval.
func TestShardedDrainOpenInterval(t *testing.T) {
	trace := gridtest.Trace(10, 1500, 8)
	cfg := gridtest.Config()
	sharded, err := New(Config{Shards: 3, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	primary, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	var got []*core.Report
	for i, recs := range trace {
		sharded.ObserveBatch(recs)
		oi := sharded.DrainOpenInterval()
		if oi.Buffer.Len() != len(recs) {
			t.Fatalf("interval %d: drained %d records, want %d", i, oi.Buffer.Len(), len(recs))
		}
		if redrain := sharded.DrainOpenInterval(); redrain.Buffer.Len() != 0 {
			t.Fatalf("interval %d: re-drain returned %d records", i, redrain.Buffer.Len())
		}
		if err := primary.AbsorbOpenInterval(oi); err != nil {
			t.Fatal(err)
		}
		rep, err := primary.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rep)
	}
	gridtest.Equal(t, got, gridtest.Reference(t, cfg, trace), 3)
}
