// Package core assembles the paper's end-to-end anomaly-extraction
// pipeline (Fig. 3): histogram-based detectors monitor per-feature flow
// distributions online; on an alarm, the union of the detectors' voted
// meta-data prefilters the interval's flows to a suspicious set, and
// frequent item-set mining summarizes the suspicious set into the maximal
// item-sets an operator inspects.
//
// Determinism: a pipeline's reports are byte-identical for the same
// input regardless of Workers, partitions, or agent/collector topology —
// per-partition suspicious sets concatenate in partition order, report
// fields are sorted at the boundary, and mining is order-insensitive (see
// docs/ARCHITECTURE.md "The determinism contract").
package core

import (
	"fmt"
	"runtime"
	"sync"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/hash"
	"anomalyx/internal/histogram"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/eclat"
	"anomalyx/internal/prefilter"
)

// Config carries the pipeline parameters (Table III).
type Config struct {
	// Features lists the monitored traffic features (default: the
	// paper's five — srcIP, dstIP, srcPort, dstPort, packets).
	Features []flow.FeatureKind
	// Detector is the per-feature detector template (bins k, clones n,
	// votes l, threshold multiplier alpha, training window).
	Detector detector.Config
	// MinSupport is the absolute Apriori minimum support s. When 0,
	// RelativeSupport applies.
	MinSupport int
	// RelativeSupport expresses s as a fraction of the suspicious-flow
	// count; the paper's guidance is 1–10% of the input flows (§II-E).
	// Default 0.05.
	RelativeSupport float64
	// Miner is the frequent item-set algorithm. Default (nil): the
	// built-in columnar Eclat, which mines the suspicious rows in place
	// in the interval's flow buffer; its item-sets are identical to the
	// modified Apriori of §II-B. A non-nil Miner is handed the same
	// rows as transactions instead.
	Miner mining.Miner
	// KeepSuspicious retains the suspicious flows in each report (for
	// forensics and tests; costs memory on big intervals).
	KeepSuspicious bool
	// Workers bounds each partition's detector-bank worker pool for
	// ObserveBatch and EndInterval, and the chunked parallel prefilter
	// scan of the extraction stage. 0 means max(1, GOMAXPROCS /
	// partitions), resolved once by NewPartitioned and reported by
	// Pipeline.Config; 1 forces the sequential path. The parallel paths
	// produce reports byte-identical to the sequential ones.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.RelativeSupport == 0 {
		c.RelativeSupport = 0.05
	}
	return c
}

// validate rejects the support and worker settings no extraction can
// use; both entry points, NewPartitioned and ExtractOffline, call it
// after withDefaults.
func (c Config) validate() error {
	if c.MinSupport < 0 {
		return fmt.Errorf("core: negative minimum support %d", c.MinSupport)
	}
	if c.MinSupport == 0 && !(c.RelativeSupport > 0 && c.RelativeSupport <= 1) {
		return fmt.Errorf("core: relative support %v out of (0,1]", c.RelativeSupport)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	return nil
}

// Report is the outcome of one measurement interval.
type Report struct {
	Interval int
	// Detection is the raw detector-bank outcome, including per-clone
	// KL distances and the voted meta-data.
	Detection detector.BankResult
	// Alarm mirrors Detection.Alarm.
	Alarm bool
	// TotalFlows is the interval's flow count; SuspiciousFlows the
	// prefiltered count (0 unless Alarm).
	TotalFlows      int
	SuspiciousFlows int
	// MinSupport is the absolute support used for mining this interval.
	MinSupport int
	// Mining holds the full mining result; ItemSets the maximal
	// item-sets (the operator-facing summary). Both nil/empty unless
	// Alarm.
	Mining   *mining.Result
	ItemSets []itemset.Set
	// CostReduction is R = TotalFlows / len(ItemSets) (§III-F); +Inf
	// when mining returned nothing, 0 when there was no alarm.
	CostReduction float64
	// Suspicious holds the prefiltered flows when KeepSuspicious is set.
	Suspicious []flow.Record
	// Partial lists, sorted ascending, the agent IDs a distributed
	// collector closed this interval without (their connections were
	// down and their frames never arrived). Nil for local runs and for
	// distributed intervals that merged every agent — the byte-identical
	// determinism guarantee applies exactly to reports with a nil
	// Partial.
	Partial []int
}

// Pipeline is the online anomaly-extraction engine. Feed flows with
// Observe or ObserveBatch and close intervals with EndInterval. It is
// safe for concurrent use: observes may run from multiple goroutines and
// EndInterval linearizes the interval boundary, though callers that need
// a well-defined flow-to-interval assignment must still serialize
// observes against interval closes themselves (the engine package does).
//
// A pipeline owns n ≥ 1 partitions (NewPartitioned), each a detector
// bank and a columnar flow buffer; every record goes to the partition
// ShardOf names. All partitions are built from one Config, so their clone
// sets are exact mergeable sketches of each other: the interval close
// folds them into partition 0 and reports exactly what one partition
// over the whole stream reports (see closeInterval).
type Pipeline struct {
	cfg   Config
	banks []*detector.Bank // one per partition; banks[0] closes detection
	part  hash.Func        // the partitioner (ShardOf)

	mu sync.Mutex
	// buffers holds the open interval's flows in columnar (SoA) form, one
	// flow.Buffer per partition. Rows append in observation order, and
	// every consumer — prefilter scan, snapshot, wire encode — walks them
	// column-wise. Each buffer is its own allocation: partitions append
	// concurrently, and adjacent column headers would share cache lines.
	buffers []*flow.Buffer
	// batches is the ingest's partition scratch: one sub-batch per
	// partition, emptied and refilled by every partitioned batch.
	batches [][]flow.Record
	// one is Observe's one-record batch.
	one [1]flow.Record

	// extract is the extraction stage's scratch, allocated by the first
	// alarm close that has meta-data to extract by, so a pipeline that
	// never extracts never pays for it. One per pipeline suffices: closes
	// are serialized in interval order (see closeInterval).
	extract *extraction

	// spares is the freelist of reset interval states (clone sets + flow
	// buffers) cycled through pipelined closes; spareMu guards it
	// because Finish recycles from the close worker while BeginClose pops
	// from the ingest goroutine.
	spareMu sync.Mutex
	spares  []intervalState

	// drainLent is the memory of the last DrainOpenInterval result, until
	// RecycleOpenInterval gives it back and it becomes drainSpare, which
	// the next drain reuses. Both are guarded by mu.
	drainLent, drainSpare *drainMemory
}

// partitionSeed derives the partitioner's hash function. A fixed
// constant keeps the record→partition assignment stable across runs and
// processes — rebalancing would silently split a flow key's traffic
// across partitions mid-stream.
const partitionSeed = 0x5ca1ab1ec0ffee

// minParallelBatch is the batch size below which a partitioned ingest
// feeds its partitions one after another on the calling goroutine
// instead of fanning them out.
const minParallelBatch = 128

// New builds a one-partition pipeline from cfg.
func New(cfg Config) (*Pipeline, error) { return NewPartitioned(cfg, 1) }

// NewPartitioned builds a pipeline whose open interval is split across
// n partitions by a stable hash of the flow key. Partitioned ingestion
// runs one goroutine per partition, each fanning further out over its
// bank's Workers, so a zero Workers splits GOMAXPROCS over the n
// partitions; reports are byte-identical to New's for every n.
func NewPartitioned(cfg Config, n int) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if n < 1 {
		return nil, fmt.Errorf("core: %d partitions, need at least 1", n)
	}
	if cfg.Workers == 0 {
		cfg.Workers = max(1, runtime.GOMAXPROCS(0)/n)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg, part: hash.New(partitionSeed), batches: make([][]flow.Record, n)}
	for range n {
		p.buffers = append(p.buffers, new(flow.Buffer))
		bank, err := detector.NewBank(detector.BankConfig{
			Features: cfg.Features,
			Template: cfg.Detector,
			Workers:  cfg.Workers,
		})
		if err != nil {
			p.Close()
			return nil, err
		}
		p.banks = append(p.banks, bank)
	}
	return p, nil
}

// Config returns the pipeline's effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// ShardOf returns the partition rec belongs to: the seeded hash of the
// stable flow key, reduced to [0, n). All records of one flow key land
// in one partition.
func (p *Pipeline) ShardOf(rec *flow.Record) int { return p.part.Bin(rec.Key(), len(p.banks)) }

// Observe feeds one flow of the current interval: a one-record
// ObserveBatch, through a scratch batch that adds no allocation.
func (p *Pipeline) Observe(rec flow.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.one[0] = rec
	p.ingest(p.one[:])
}

// ObserveBatch feeds a batch of flows of the current interval. It
// amortizes per-record overhead and fans the detector-bank updates out
// over the configured worker pool — and, over several partitions,
// ingests each partition's share of the batch on its own goroutine. The
// resulting state does not depend on how the records are batched:
// value-table updates commute, and each partition is owned by one
// goroutine.
func (p *Pipeline) ObserveBatch(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ingest(recs)
}

// ingest is the one ingest route: it scatters recs to their partitions
// by ShardOf and feeds each partition its share, concurrently unless the
// batch is small. p.mu must be held.
func (p *Pipeline) ingest(recs []flow.Record) {
	if len(p.banks) == 1 {
		p.observePart(0, recs)
		return
	}
	for i := range p.batches {
		p.batches[i] = p.batches[i][:0]
	}
	for i := range recs {
		s := p.ShardOf(&recs[i])
		p.batches[s] = append(p.batches[s], recs[i])
	}
	// The fan-out costs more than it saves on small batches.
	inline := len(recs) < minParallelBatch
	var wg sync.WaitGroup
	for i, part := range p.batches {
		switch {
		case len(part) == 0:
		case inline:
			p.observePart(i, part)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.observePart(i, part)
			}()
		}
	}
	wg.Wait()
}

// observePart ingests recs into partition i. p.mu must be held.
func (p *Pipeline) observePart(i int, recs []flow.Record) {
	p.buffers[i].AppendRecords(recs)
	p.banks[i].ObserveBatch(recs)
}

// EndInterval closes the current interval: runs detection and, on an
// alarm, extraction (prefilter + mining) — closeInterval over the live
// state, lent in place under the pipeline lock. Every flow buffer is
// cleared.
//
// The synchronous close is deliberately not BeginClose + Finish: that
// swap keeps a second interval state (clone sets, value-table arenas,
// buffer columns) alive per partition, which a caller that never
// overlaps closes with ingestion pays in resident memory for nothing.
func (p *Pipeline) EndInterval() (*Report, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sets := make([][]*histogram.CloneSet, len(p.banks))
	for i, b := range p.banks {
		sets[i] = b.LiveInterval()
	}
	return p.closeInterval(sets, p.buffers)
}

// closeInterval is the one interval close (Fig. 3), over one clone set
// per detector and one flow buffer per partition — the live state lent by
// EndInterval, or the state BeginClose drained earlier:
//
//  1. the other partitions' value tables merge into partition 0's
//     (sets[0]; exact mergeable sketches, one fold per feature) and
//     detection derives the clones' bins once, from the merged tables,
//     and closes against partition 0's history;
//  2. on an alarm, every partition's flow buffer is prefiltered
//     concurrently (one goroutine per partition, each fanning further
//     out over Workers) to the row indices of its suspicious flows; the
//     per-partition index lists, read in partition order, name the flows
//     a scan of one merged buffer would find, in the same order;
//  3. the suspicious rows are mined once, where they lie (see
//     extraction).
//
// Every clone set and buffer is left reset, on the error path too:
// detection history has rotated by the time mining can fail, so state
// left behind would be counted into the next interval a second time.
// Calls must be serialized in interval order — the KL scheme compares
// each interval against the previous one — and the caller must own
// every clone set and buffer for the duration of the call.
func (p *Pipeline) closeInterval(sets [][]*histogram.CloneSet, buffers []*flow.Buffer) (*Report, error) {
	primary := p.banks[0]
	primary.MergeDrained(sets[0], sets[1:])
	det := primary.FinishInterval(sets[0])
	rep := &Report{
		Interval:  det.Interval,
		Detection: det,
		Alarm:     det.Alarm,
	}
	for _, buf := range buffers {
		rep.TotalFlows += buf.Len()
	}
	var err error
	if det.Alarm && det.Meta.Count() > 0 {
		if p.extract == nil {
			p.extract = &extraction{}
		}
		x := p.extract
		x.reset(len(buffers))
		var wg sync.WaitGroup
		for i, buf := range buffers {
			if buf.Len() == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				x.rows[i] = prefilter.SelectBuffer(prefilter.Union{}, det.Meta, buf, p.cfg.Workers, x.rows[i])
			}()
		}
		wg.Wait()
		err = x.finish(p.cfg, rep, buffers)
	}
	for _, buf := range buffers {
		buf.Reset()
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Close releases every partition's detector-bank worker pool. It is
// idempotent. The pipeline must not observe flows or close intervals
// after Close.
func (p *Pipeline) Close() {
	for _, b := range p.banks {
		b.Close()
	}
}

// ProcessInterval is the batch convenience: ObserveBatch all recs, then
// EndInterval.
func (p *Pipeline) ProcessInterval(recs []flow.Record) (*Report, error) {
	p.ObserveBatch(recs)
	return p.EndInterval()
}

// extraction is the scratch of the extraction stage (prefilter + mining):
// per partition the prefilter's survivor row indices, and the built-in
// miner's tables and bitsets. The stage works on indices end to end — the
// suspicious flows stay where they are in the interval's columnar
// buffers — and everything here is grown on demand and kept, so from the
// second same-shaped alarm on, a close allocates only its report.
type extraction struct {
	rows  [][]int32
	eclat eclat.Scratch
}

// reset readies x to hold the survivor rows of n buffers, discarding the
// previous close's.
func (x *extraction) reset(n int) {
	for len(x.rows) < n {
		x.rows = append(x.rows, nil)
	}
	x.rows = x.rows[:n]
	for i := range x.rows {
		x.rows[i] = x.rows[i][:0]
	}
}

// finish populates rep's extraction fields from the survivor rows
// x.rows[i] of buffers[i]: counts, resolved minimum support, mining
// result, maximal item-sets, and cost reduction. Transaction ids follow
// the concatenation of the row lists in partition order. Both extraction
// entry points — the interval close and the offline post-mortem — funnel
// through here so their reports stay field-for-field comparable.
func (x *extraction) finish(cfg Config, rep *Report, buffers []*flow.Buffer) error {
	for _, rows := range x.rows {
		rep.SuspiciousFlows += len(rows)
	}
	if cfg.KeepSuspicious && rep.SuspiciousFlows > 0 {
		rep.Suspicious = make([]flow.Record, 0, rep.SuspiciousFlows)
		for i, rows := range x.rows {
			for _, r := range rows {
				rep.Suspicious = append(rep.Suspicious, buffers[i].Record(int(r)))
			}
		}
	}
	if rep.SuspiciousFlows == 0 {
		rep.CostReduction = CostReduction(rep.TotalFlows, 0)
		return nil
	}
	rep.MinSupport = supportFor(cfg, rep.SuspiciousFlows)

	if cfg.Miner == nil {
		rep.Mining = x.eclat.MineColumns(buffers, x.rows, rep.MinSupport)
	} else {
		// The one fork: an injected miner takes row-form transactions,
		// built from the columns by survivor index.
		txs := make([]itemset.Transaction, 0, rep.SuspiciousFlows)
		for i, rows := range x.rows {
			txs = itemset.AppendRows(txs, buffers[i], rows)
		}
		res, err := cfg.Miner.Mine(txs, rep.MinSupport)
		if err != nil {
			return fmt.Errorf("core: mining interval %d: %w", rep.Interval, err)
		}
		rep.Mining = res
	}
	rep.ItemSets = rep.Mining.Maximal
	rep.CostReduction = CostReduction(rep.TotalFlows, len(rep.ItemSets))
	return nil
}

// supportFor resolves the absolute minimum support for a suspicious-flow
// count.
func supportFor(cfg Config, suspicious int) int {
	if cfg.MinSupport > 0 {
		return cfg.MinSupport
	}
	s := int(cfg.RelativeSupport * float64(suspicious))
	if s < 1 {
		s = 1
	}
	return s
}

// ExtractOffline runs the extraction stage alone — the post-mortem mode
// of §II: given an interval's flows and the alarm meta-data an operator
// wants to investigate, prefilter and mine without touching detector
// state. It is the online path over a call-local scratch: recs are
// transposed into a flow.Buffer (far cheaper than the row-form scan it
// replaces), the prefilter scans the columns — fanned out over
// cfg.Workers chunks with output identical to a sequential scan — and
// the survivors are mined in place.
func ExtractOffline(cfg Config, recs []flow.Record, meta detector.MetaData) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep := &Report{TotalFlows: len(recs), Alarm: true}
	buf := flow.BufferOf(recs)
	var x extraction
	x.reset(1)
	x.rows[0] = prefilter.SelectBuffer(prefilter.Union{}, meta, &buf, cfg.Workers, nil)
	if err := x.finish(cfg, rep, []*flow.Buffer{&buf}); err != nil {
		return nil, err
	}
	return rep, nil
}
