// Package anomalyx is a Go implementation of the anomaly-extraction
// system of Brauckhoff, Dimitropoulos, Wagner and Salamatian, "Anomaly
// Extraction in Backbone Networks Using Association Rules" (ACM IMC 2009;
// extended in IEEE/ACM ToN 20(6), 2012).
//
// The pipeline monitors NetFlow traffic with histogram-based detectors
// (randomized histogram clones, Kullback–Leibler distance against the
// previous interval, a robust MAD threshold), consolidates alarm
// meta-data by l-of-n voting and cross-detector union, prefilters the
// suspicious flows, and summarizes them into the maximal frequent
// item-sets of the paper's modified Apriori — the item-sets an operator
// inspects instead of hundreds of thousands of raw flows. (By default
// they are mined by a built-in columnar Eclat, item-sets identical to
// the modified Apriori of §II-B; Config.Miner swaps the algorithm.)
//
// This package is the public facade: it re-exports the pipeline types so
// that applications need a single import.
//
// Every configuration of the system — workers, shards, or distributed
// agents and a collector — produces byte-identical reports for the same
// input records; see docs/ARCHITECTURE.md "The determinism contract"
// for how parallel state merges and sorted report boundaries keep that
// guarantee.
//
//	p, _ := anomalyx.NewPipeline(anomalyx.Config{})
//	for _, rec := range intervalFlows {
//		p.Observe(rec)
//	}
//	rep, _ := p.EndInterval()
//	if rep.Alarm {
//		for _, set := range rep.ItemSets {
//			fmt.Println(set.String())
//		}
//	}
package anomalyx

import (
	"runtime"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/fpgrowth"
	"anomalyx/internal/netflow"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// Core model types.
type (
	// Flow is one unidirectional flow record (the NetFlow v5
	// abstraction: 5-tuple plus packet and byte counts).
	Flow = flow.Record
	// FeatureKind identifies one of the seven transaction features.
	FeatureKind = flow.FeatureKind
	// Item is one (feature, value) pair; ItemSet a frequent item-set.
	Item = itemset.Item
	// ItemSet is a frequent item-set with its support count.
	ItemSet = itemset.Set
	// Transaction is a flow viewed as a seven-item transaction.
	Transaction = itemset.Transaction
	// MetaData is the per-feature alarm annotation driving prefiltering.
	MetaData = detector.MetaData
)

// Pipeline types.
type (
	// Config parameterizes the extraction pipeline (Table III).
	Config = core.Config
	// DetectorConfig parameterizes one histogram-based detector.
	DetectorConfig = detector.Config
	// Pipeline is the online anomaly-extraction engine.
	Pipeline = core.Pipeline
	// Report is the per-interval outcome.
	Report = core.Report
	// MiningResult is a frequent item-set mining outcome.
	MiningResult = mining.Result
	// Miner is a frequent item-set mining algorithm.
	Miner = mining.Miner
)

// The seven transaction features.
const (
	SrcIP   = flow.SrcIP
	DstIP   = flow.DstIP
	SrcPort = flow.SrcPort
	DstPort = flow.DstPort
	Proto   = flow.Proto
	Packets = flow.Packets
	Bytes   = flow.Bytes
)

// Streaming engine types.
type (
	// Engine is the channel-based streaming front end: submit flows in
	// batches (SubmitBatch, which returns how many intervals the batch
	// closed), receive one Report per measurement interval, with interval
	// sharding by flow start time and bounded-buffer backpressure.
	Engine = engine.Engine
	// EngineConfig parameterizes a streaming engine; set Shards > 1 to
	// hash-partition the engine's pipeline.
	EngineConfig = engine.Config
)

// Sharding types.
type (
	// ShardedPipeline is a Pipeline whose intervals are hash-partitioned
	// by the stable flow key: each partition ingests its share in
	// parallel, and every close merges the partitions deterministically,
	// so reports are byte-identical to one partition over the same
	// records.
	ShardedPipeline = shard.ShardedPipeline
	// ShardConfig parameterizes a sharded pipeline.
	ShardConfig = shard.Config
)

// NewPipeline builds an extraction pipeline; zero-value Config fields take
// the paper's defaults (five features, k=1024, n=l=3, alpha=3, union
// prefilter, minimum support 5% of the suspicious flows). A nil
// Config.Miner — the default — mines with the built-in columnar Eclat,
// item-sets identical to the modified Apriori of §II-B; FPGrowth below
// is an injectable alternative with the same output.
// Set Config.Workers to run the detector bank's batched ingestion and the
// extraction stage's prefilter scan on a worker pool (0 = GOMAXPROCS);
// parallel reports are byte-identical to sequential ones.
func NewPipeline(cfg Config) (*Pipeline, error) { return core.New(cfg) }

// NewEngine builds and starts a streaming engine around a pipeline
// (hash-partitioned when cfg.Shards > 1).
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// NewShardedEngine builds and starts a streaming engine around a
// ShardedPipeline of the given partition count (0 =
// GOMAXPROCS; negative counts are rejected, as everywhere in the
// sharding API). It is NewEngine with cfg.Shards set.
func NewShardedEngine(cfg EngineConfig, shards int) (*Engine, error) {
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg.Shards = shards
	return engine.New(cfg)
}

// NewShardedPipeline builds a pipeline of cfg.Shards partitions
// (default GOMAXPROCS) keyed by flow key, merged deterministically at
// every EndInterval; a zero cfg.Pipeline.Workers gives each partition
// max(1, GOMAXPROCS / partitions) workers, as in every partitioned
// entry point. Call Close when done to release the partitions' worker
// pools.
func NewShardedPipeline(cfg ShardConfig) (*ShardedPipeline, error) { return shard.New(cfg) }

// ExtractOffline runs the extraction stage alone on a recorded interval:
// prefilter recs with meta and mine the suspicious set (the post-mortem
// alarm-investigation mode). As in a pipeline, a nil cfg.Miner mines
// with the built-in columnar Eclat. cfg.Workers parallelizes the
// prefilter scan with output identical to the sequential one.
func ExtractOffline(cfg Config, recs []Flow, meta MetaData) (*Report, error) {
	return core.ExtractOffline(cfg, recs, meta)
}

// NewMetaData returns an empty alarm annotation for offline extraction.
func NewMetaData() MetaData { return detector.NewMetaData() }

// FPGrowth returns the FP-tree miner; same item-sets as Apriori.
func FPGrowth() Miner { return fpgrowth.New() }

// Distributed deployment: the wire protocol that lets shards live on
// separate machines. Agents accumulate partitions of the flow stream
// and ship each measurement interval's drained state (mergeable
// histogram clones + buffered flows) to a collector, which absorbs the
// snapshots in agent-ID order and runs detection — with reports
// byte-identical to a single process running the same partitions as
// in-process shards. Sessions survive their transports: agents buffer
// unacked intervals, redial, and resume; the collector deduplicates
// replays and can restart from a checkpoint. See docs/ARCHITECTURE.md
// for the full contract and failure model.
type (
	// WireAgent is the sending half: one logical stream to a collector
	// that survives connection loss via ack-gated replay.
	WireAgent = wire.Agent
	// WireCollector merges N agents' interval frames and owns all
	// detection state.
	WireCollector = wire.Collector
	// RetryConfig parameterizes an agent's redial backoff (capped
	// exponential, with jitter seeded by the agent ID).
	RetryConfig = wire.RetryConfig
	// CollectorConfig parameterizes a collector session: fleet size,
	// hold timeout, checkpoint/resume, metrics address. An interval
	// waits for a missing agent's frame up to HoldTimeout and then
	// closes without it, flagged Report.Partial; 0 waits forever.
	CollectorConfig = wire.CollectorConfig
	// ConfigMismatchError reports a handshake rejected over differing
	// detection-config digests; match it with errors.As.
	ConfigMismatchError = wire.ConfigMismatchError
	// WireRelay is an intermediate federation node: a collector facing
	// child agents below and an agent facing a parent collector above.
	// It merges its children's interval frames and ships the merged
	// open interval upward without ever running detection — only the
	// tree's root owns detection history and emits reports.
	WireRelay = wire.Relay
	// RelayConfig parameterizes a relay node: the CollectorConfig of its
	// child-facing session (fan-in as Agents, hold timeout, checkpoint/resume,
	// metrics) and its place upstream (agent ID, parent, leaf base,
	// retry).
	RelayConfig = wire.RelayConfig
)

// AgentConfig parameterizes the agent side of a distributed session.
type AgentConfig struct {
	// Addr is the collector's TCP address.
	Addr string
	// AgentID is this agent's ID in [0, CollectorConfig.Agents).
	AgentID int
	// Retry is the redial policy; the zero value means 8 attempts with
	// 100ms-base jittered exponential backoff capped at 10s.
	Retry RetryConfig
	// Shards is the partition count of the agent's local pipeline (0 =
	// GOMAXPROCS), as in NewShardedPipeline, with the same Workers rule:
	// a zero Pipeline.Workers means max(1, GOMAXPROCS / Shards) per
	// partition. The partitions fold into one before every interval
	// ships.
	Shards int
	// ReplayBuffer bounds the unacked-frame replay buffer (0 = 64; a
	// negative bound is refused); when full, interval closes block
	// until the collector acks — backpressure, never data loss. A root
	// collector without a checkpoint acks a frame once it has queued
	// it, so even a buffer of 1 lets the agent ship ahead of the root's
	// interval close.
	ReplayBuffer int
}

// AgentSession is a running distributed agent: a streaming Engine whose
// interval closes ship drained snapshots to the collector, plus the
// wire stream itself. Submit flows and read Reports exactly as with a
// local Engine (the reports are local stubs; detection happens at the
// collector). Close shuts both down in the required order.
type AgentSession struct {
	*Engine
	agent *WireAgent
}

// Close flushes and stops the engine (shipping the final partial
// interval), then closes the wire stream so the Bye frame trails the
// final snapshot. It returns the first error.
func (s *AgentSession) Close() error {
	err := s.Engine.Close()
	if cerr := s.agent.Close(); err == nil {
		err = cerr
	}
	return err
}

// NewAgent dials the collector and starts a distributed agent session:
// a shipping engine (engine.NewShipping) that drains a local
// ShardedPipeline (ac.Shards partitions, folded into one at each drain)
// into the wire stream each interval. Shipping closes run inline, so
// cfg.PipelineDepth > 1 is rejected. cfg.Pipeline must match the
// collector's configuration (digest-checked in the handshake; a mismatch
// surfaces as a *ConfigMismatchError). The wire protocol carries
// positive grid boundaries only: a stream whose first interval ends at
// or before the epoch fails its first close instead of dropping it. The
// session survives collector outages per ac.Retry: unacked intervals are
// buffered and replayed after a redial.
func NewAgent(cfg EngineConfig, ac AgentConfig) (*AgentSession, error) {
	agent, err := wire.DialAgent(ac.Addr, ac.AgentID, cfg.Pipeline, wire.AgentOptions{
		Retry:        ac.Retry,
		ReplayBuffer: ac.ReplayBuffer,
	})
	if err != nil {
		return nil, err
	}
	sp, err := shard.New(shard.Config{Shards: ac.Shards, Pipeline: cfg.Pipeline})
	if err != nil {
		agent.Close()
		return nil, err
	}
	eng, err := engine.NewShipping(cfg, sp, agent.ShipOpenInterval)
	if err != nil {
		// Release the partitions' detector-bank worker pools: the engine
		// was never built, so nothing else will Close them.
		sp.Close()
		agent.Close()
		return nil, err
	}
	return &AgentSession{Engine: eng, agent: agent}, nil
}

// NewCollectorWithConfig builds the collector side from a
// CollectorConfig; drive it with Serve on a TCP listener.
func NewCollectorWithConfig(cfg Config, cc CollectorConfig) (*WireCollector, error) {
	return wire.NewCollector(cfg, cc)
}

// NewRelay builds a federation relay node; drive it with Serve on a
// TCP listener facing its children. cfg must match the whole tree's
// detection configuration (digest-checked on every edge), and
// rc.Collector is checked as NewCollectorWithConfig checks a root's. A
// relay never acks a child's boundary before the boundary is either
// acked by its own parent or durably checkpointed, so no tier of the
// tree can lose or duplicate an interval.
func NewRelay(cfg Config, rc RelayConfig) (*WireRelay, error) {
	return wire.NewRelay(cfg, rc)
}

// NetFlow I/O.
type (
	// FlowReader streams flow records from concatenated NetFlow v5
	// export packets.
	FlowReader = netflow.Reader
	// FlowWriter batches flow records into NetFlow v5 export packets.
	FlowWriter = netflow.Writer
	// V9Decoder parses NetFlow v9 export datagrams (template-based,
	// RFC 3954) into flow records.
	V9Decoder = netflow.V9Decoder
	// V9Encoder serializes flow records as v9 export datagrams.
	V9Encoder = netflow.V9Encoder
)

// NewV9Decoder returns a v9 decoder with an empty template cache.
var NewV9Decoder = netflow.NewV9Decoder

// NewV9Encoder returns a v9 encoder for an exporter booted at bootMs.
var NewV9Encoder = netflow.NewV9Encoder

// NewFlowReader wraps an io.Reader of concatenated v5 packets.
var NewFlowReader = netflow.NewReader

// NewFlowWriter wraps an io.Writer; bootMs is the simulated exporter boot
// time in Unix milliseconds. Write rejects a flow whose times the v5
// packets cannot carry: before bootMs, 2^32 ms or more after it, or
// ending outside the header's uint32 export seconds.
var NewFlowWriter = netflow.NewWriter
