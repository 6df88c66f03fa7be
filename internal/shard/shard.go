// Package shard is the constructor of hash-partitioned pipelines: a
// core.Pipeline over Config.Shards partitions (core.NewPartitioned),
// with the defaults the sharded entry points — the engine, the agent
// session, the facade's NewShardedPipeline — have always applied.
// Partitioning, the cross-partition merge and the close live in core,
// whose reports are byte-identical at every partition count.
package shard

import (
	"runtime"

	"anomalyx/internal/core"
)

// Config parameterizes a sharded pipeline.
type Config struct {
	// Shards is the partition count (default: GOMAXPROCS at
	// construction; negative counts are rejected).
	Shards int
	// Pipeline configures the pipeline; zero-value fields take the
	// paper's defaults (see core.Config). When Pipeline.Workers is 0 each
	// partition's detector bank runs sequentially (Workers = 1):
	// parallelism comes from the partition fan-out, and a worker pool per
	// partition on top of it would oversubscribe the CPUs.
	Pipeline core.Config
}

// ShardedPipeline is a partitioned core.Pipeline.
type ShardedPipeline = core.Pipeline

// New builds a sharded pipeline from cfg.
func New(cfg Config) (*ShardedPipeline, error) {
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Pipeline.Workers == 0 {
		cfg.Pipeline.Workers = 1
	}
	return core.NewPartitioned(cfg.Pipeline, cfg.Shards)
}
