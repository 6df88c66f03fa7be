// Package shard implements hash-partitioned multi-pipeline sharding:
// N independent extraction pipelines each own a partition of the flow
// stream, assigned by a stable hash of the flow key, and a lockstep
// interval close merges the per-shard state into one deterministic
// report.
//
// The partitioning exploits that the paper's per-interval detection
// state is a set of randomized histograms (§II-D) — exact mergeable
// sketches: clones built from the same seed hash a value to the same bin
// in every shard, so adding the per-bin counts (and unioning the
// bin→value maps) of N shard histograms yields precisely the histogram
// one pipeline would have built from the whole stream. EndInterval
// therefore absorbs the N-1 sibling banks into the primary shard and
// runs detection (KL, thresholds, anomalous-bin identification, l-of-n
// voting) over the merged state; the extraction stage stays distributed
// — on an alarm each shard prefilters its own local flow buffer
// concurrently and the suspicious sets merge in shard order before one
// mining pass — and the resulting report is byte-identical to an
// unsharded run over the same records, the property the determinism
// tests pin down. Both ingestion (the hot path) and the per-alarm
// prefilter scan run fully in parallel: each shard locks only its own
// pipeline and scans only its own buffer, so throughput and the
// per-shard value-tracking working set both scale with the shard count.
//
//	sp, _ := shard.New(shard.Config{Shards: 8})
//	for batch := range source {
//		sp.ObserveBatch(batch) // partitioned + ingested in parallel
//	}
//	rep, _ := sp.EndInterval() // lockstep close + cross-shard merge
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/hash"
)

// minParallelBatch is the batch size below which ObserveBatch skips the
// partition + goroutine fan-out and routes records sequentially.
const minParallelBatch = 128

// partitionSeed derives the partitioner's hash function. A fixed
// constant keeps the record→shard assignment stable across runs and
// processes — rebalancing would silently split a flow key's traffic
// across shards mid-stream.
const partitionSeed = 0x5ca1ab1ec0ffee

// Config parameterizes a sharded pipeline.
type Config struct {
	// Shards is the number of independent pipelines the stream is
	// partitioned across (default: GOMAXPROCS at construction).
	Shards int
	// Pipeline configures each shard's pipeline; zero-value fields take
	// the paper's defaults (see core.Config). When Pipeline.Workers is 0
	// each shard's detector bank runs sequentially (Workers = 1):
	// parallelism comes from the shard fan-out, and one worker pool per
	// shard on top of it would oversubscribe the CPUs. Set Workers
	// explicitly to also parallelize inside each shard.
	Pipeline core.Config
}

// ShardedPipeline partitions flows across N core.Pipeline instances and
// closes intervals in lockstep with a cross-shard merge. Like the plain
// pipeline it is safe for concurrent use — observes may run from
// multiple goroutines and interval closes are serialized — but callers
// needing a well-defined flow-to-interval assignment must serialize
// observes against EndInterval themselves (the engine package does).
type ShardedPipeline struct {
	cfg    Config
	fn     hash.Func
	shards []*core.Pipeline

	mu sync.Mutex // serializes interval closes against each other
}

// New builds a sharded pipeline from cfg.
func New(cfg Config) (*ShardedPipeline, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Pipeline.Workers == 0 {
		cfg.Pipeline.Workers = 1
	}
	s := &ShardedPipeline{cfg: cfg, fn: hash.New(partitionSeed)}
	for i := 0; i < cfg.Shards; i++ {
		p, err := core.New(cfg.Pipeline)
		if err != nil {
			for _, prev := range s.shards {
				prev.Close()
			}
			return nil, err
		}
		s.shards = append(s.shards, p)
	}
	return s, nil
}

// Config returns the effective configuration.
func (s *ShardedPipeline) Config() Config { return s.cfg }

// NumShards returns the shard count.
func (s *ShardedPipeline) NumShards() int { return len(s.shards) }

// ShardOf returns the shard index rec is partitioned to: the seeded hash
// of the stable flow key, reduced to [0, NumShards). All records of one
// flow key land in one shard.
func (s *ShardedPipeline) ShardOf(rec *flow.Record) int {
	return s.fn.Bin(rec.Key(), len(s.shards))
}

// Observe feeds one flow of the current interval to its shard.
func (s *ShardedPipeline) Observe(rec flow.Record) {
	s.shards[s.ShardOf(&rec)].Observe(rec)
}

// ObserveBatch partitions a batch across the shards and ingests the
// sub-batches in parallel, one goroutine per non-empty shard; each shard
// fans its sub-batch out to its own detector bank. The detector state
// after the call is identical to an unsharded ObserveBatch: histogram
// updates commute and each (shard, clone) histogram is owned by one
// goroutine.
func (s *ShardedPipeline) ObserveBatch(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	if len(s.shards) == 1 {
		s.shards[0].ObserveBatch(recs)
		return
	}
	if len(recs) < minParallelBatch {
		// Partition slices and per-shard goroutines cost more than they
		// save on small batches (the engine flushes a few pending
		// records before every pre-formed batch, for example); route the
		// records one by one instead.
		for i := range recs {
			s.shards[s.fn.Bin(recs[i].Key(), len(s.shards))].Observe(recs[i])
		}
		return
	}
	parts := make([][]flow.Record, len(s.shards))
	est := len(recs)/len(s.shards) + 8
	for i := range parts {
		parts[i] = make([]flow.Record, 0, est)
	}
	for i := range recs {
		sh := s.fn.Bin(recs[i].Key(), len(s.shards))
		parts[sh] = append(parts[sh], recs[i])
	}
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part []flow.Record) {
			defer wg.Done()
			s.shards[i].ObserveBatch(part)
		}(i, part)
	}
	wg.Wait()
}

// EndInterval closes the current interval in lockstep across the
// shards (core.EndIntervalGroup): the primary shard absorbs every
// sibling's clone histograms (the cross-shard merge, exact because
// equal-seed histogram clones are mergeable sketches) and closes
// detection over the merged state; on an alarm each shard then
// prefilters its own local flow buffer concurrently and the per-shard
// suspicious sets merge in shard order before one mining pass — the
// flow buffers never funnel through the primary. Detection results,
// voted meta-data (deduplicated by the merge's value-set union),
// prefilter counts, mined item-sets and cost reduction are
// byte-identical to an unsharded pipeline over the same records; only
// the order of the KeepSuspicious forensic slice differs (records
// regroup by shard).
func (s *ShardedPipeline) EndInterval() (*core.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.EndIntervalGroup(s.shards)
}

// BeginClose drains the open interval from every shard in lockstep —
// the pipelined counterpart of EndInterval. The drain swaps each shard's
// clone histograms and flow buffer for reset recycled ones under the
// sharded pipeline's lock; the returned PendingClose's Finish runs the
// cross-shard merge, detection and extraction later, producing a report
// byte-identical to EndInterval's (see core.BeginIntervalGroup).
func (s *ShardedPipeline) BeginClose() (*core.PendingClose, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.BeginIntervalGroup(s.shards)
}

// ProcessInterval is the batch convenience: ObserveBatch all recs, then
// EndInterval.
func (s *ShardedPipeline) ProcessInterval(recs []flow.Record) (*core.Report, error) {
	s.ObserveBatch(recs)
	return s.EndInterval()
}

// DrainOpenInterval merges every sibling shard's open interval into the
// primary (core.Pipeline.Absorb) and drains the primary: the returned
// core.OpenInterval holds the whole sharded pipeline's open interval —
// merged clone histograms plus the concatenated flow buffers in shard
// order — and every shard is left empty, ready for the next interval. No
// detection runs and no detection history is copied; this is the
// distributed agent's interval close, where an agent machine runs a
// locally sharded pipeline and ships the merged interval to a collector
// that owns detection. Callers must not observe flows concurrently with
// a drain (the engine serializes this, as it does for EndInterval).
func (s *ShardedPipeline) DrainOpenInterval() (core.OpenInterval, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	primary := s.shards[0]
	for _, sh := range s.shards[1:] {
		if err := primary.Absorb(sh); err != nil {
			return core.OpenInterval{}, err
		}
	}
	return primary.DrainOpenInterval(), nil
}

// Close releases every shard's detector-bank worker pool. It is
// idempotent. The sharded pipeline must not be used after Close.
func (s *ShardedPipeline) Close() {
	for _, sh := range s.shards {
		sh.Close()
	}
}
