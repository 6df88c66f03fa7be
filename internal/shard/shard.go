// Package shard is the constructor of hash-partitioned pipelines: a
// core.Pipeline over Config.Shards partitions (core.NewPartitioned),
// defaulting Shards to GOMAXPROCS for the agent session and the
// facade's NewShardedPipeline.
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
	// paper's defaults (see core.Config, whose zero Workers splits
	// GOMAXPROCS over the partitions).
	Pipeline core.Config
}

// ShardedPipeline is a partitioned core.Pipeline.
type ShardedPipeline = core.Pipeline

// New builds a sharded pipeline from cfg.
func New(cfg Config) (*ShardedPipeline, error) {
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	return core.NewPartitioned(cfg.Pipeline, cfg.Shards)
}
