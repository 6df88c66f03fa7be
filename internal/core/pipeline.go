// Package core assembles the paper's end-to-end anomaly-extraction
// pipeline (Fig. 3): histogram-based detectors monitor per-feature flow
// distributions online; on an alarm, the union of the detectors' voted
// meta-data prefilters the interval's flows to a suspicious set, and
// frequent item-set mining summarizes the suspicious set into the maximal
// item-sets an operator inspects.
//
// Determinism: a pipeline's reports are byte-identical for the same
// input regardless of Workers, sharding, or agent/collector topology —
// per-shard suspicious sets concatenate in shard order, report fields
// are sorted at the boundary, and mining is order-insensitive (see
// docs/ARCHITECTURE.md "The determinism contract").
package core

import (
	"fmt"
	"sync"

	"anomalyx/internal/cost"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
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
	// Prefilter selects the suspicious flows from the meta-data
	// (default: union, the paper's choice).
	Prefilter prefilter.Strategy
	// KeepSuspicious retains the suspicious flows in each report (for
	// forensics and tests; costs memory on big intervals).
	KeepSuspicious bool
	// QuantizeSizes buckets the packets and bytes items to powers of two
	// before mining (§V's quantitative-features extension): flow-size
	// anomalies with slightly varying sizes then aggregate into one
	// item-set instead of fragmenting below the minimum support.
	QuantizeSizes bool
	// Workers bounds the detector bank's worker pool for ObserveBatch
	// and EndInterval, and the chunked parallel prefilter scan of the
	// extraction stage. 0 means GOMAXPROCS — resolved when the bank's
	// pool is created at construction, and at call time for the
	// prefilter scan; 1 forces the sequential path. The parallel paths
	// produce reports byte-identical to the sequential ones.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.RelativeSupport == 0 {
		c.RelativeSupport = 0.05
	}
	if c.Prefilter == nil {
		c.Prefilter = prefilter.Union{}
	}
	return c
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
type Pipeline struct {
	cfg  Config
	bank *detector.Bank

	mu sync.Mutex
	// buffer holds the open interval's flows in columnar (SoA) form; see
	// flow.Buffer. Rows append in observation order, and every consumer —
	// prefilter scan, snapshot, wire encode — walks it column-wise.
	buffer flow.Buffer

	// selfGroup is the single-element group EndInterval and BeginClose
	// close p as, built once so neither allocates it per close.
	selfGroup []*Pipeline

	// extract is the extraction stage's scratch, allocated by the first
	// alarm close that has meta-data to extract by, so a pipeline that
	// never extracts never pays for it. One per pipeline suffices: closes
	// over one primary are serialized in interval order (see closeGroup).
	extract *extraction

	// spares is the freelist of reset interval states (clone sets + flow
	// buffers) cycled through pipelined closes; spareMu guards it
	// because Finish recycles from the close worker while BeginClose pops
	// from the ingest goroutine.
	spareMu sync.Mutex
	spares  []intervalState
}

// New builds a pipeline from cfg.
func New(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if cfg.MinSupport < 0 {
		return nil, fmt.Errorf("core: negative minimum support %d", cfg.MinSupport)
	}
	if cfg.MinSupport == 0 && (cfg.RelativeSupport <= 0 || cfg.RelativeSupport > 1) {
		return nil, fmt.Errorf("core: relative support %v out of (0,1]", cfg.RelativeSupport)
	}
	bank, err := detector.NewBank(detector.BankConfig{
		Features: cfg.Features,
		Template: cfg.Detector,
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg, bank: bank}
	p.selfGroup = []*Pipeline{p}
	return p, nil
}

// Config returns the pipeline's effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Observe feeds one flow of the current interval.
func (p *Pipeline) Observe(rec flow.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buffer.Append(rec)
	p.bank.Observe(&rec)
}

// ObserveBatch feeds a batch of flows of the current interval. It
// amortizes per-record overhead and fans the detector-bank updates out
// over the configured worker pool; the resulting detector state is
// identical to observing each record with Observe.
func (p *Pipeline) ObserveBatch(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buffer.AppendRecords(recs)
	p.bank.ObserveBatch(recs)
}

// EndInterval closes the current interval: runs detection and, on an
// alarm, extraction (prefilter + mining). The flow buffer is cleared. It
// is EndIntervalGroup over a group of one.
func (p *Pipeline) EndInterval() (*Report, error) { return EndIntervalGroup(p.selfGroup) }

// Absorb folds other's in-progress interval into p: other's buffered
// flows move to the end of p's flow buffer and other's detector-bank
// clone sets merge additively into p's (see detector.Bank.Absorb),
// leaving other empty and ready for the next interval. Both pipelines
// must share the detector configuration. This is the cross-shard merge:
// because histogram clones with equal seeds are exact mergeable
// sketches, a primary pipeline that absorbs N-1 siblings and then runs
// EndInterval produces a report identical to one pipeline having
// observed the whole stream — only the flow-buffer order differs (p's
// records first, then other's), which no report field other than the
// KeepSuspicious forensic slice depends on.
func (p *Pipeline) Absorb(other *Pipeline) error {
	if other == p {
		return fmt.Errorf("core: pipeline cannot absorb itself")
	}
	// Lock in caller order; absorbs fan in toward one primary (the shard
	// merge), so no cycle can form.
	p.mu.Lock()
	defer p.mu.Unlock()
	other.mu.Lock()
	defer other.mu.Unlock()
	if err := p.bank.Absorb(other.bank); err != nil {
		return err
	}
	p.buffer.AppendBuffer(&other.buffer)
	other.buffer.Reset()
	return nil
}

// Close releases the detector bank's worker pool. It is idempotent. The
// pipeline must not observe flows or close intervals after Close.
func (p *Pipeline) Close() { p.bank.Close() }

// ProcessInterval is the batch convenience: ObserveBatch all recs, then
// EndInterval.
func (p *Pipeline) ProcessInterval(recs []flow.Record) (*Report, error) {
	p.ObserveBatch(recs)
	return p.EndInterval()
}

// extraction is the scratch of the extraction stage (prefilter + mining):
// per shard the prefilter's survivor row indices, and the built-in
// miner's tables and bitsets. The stage works on indices end to end — the
// suspicious flows stay where they are in the interval's columnar
// buffers — and everything here is grown on demand and kept, so from the
// second same-shaped alarm on, a close allocates only its report.
type extraction struct {
	rows  [][]int32
	eclat eclat.Scratch
}

// reset readies x to hold the survivor rows of shards buffers,
// discarding the previous close's.
func (x *extraction) reset(shards int) {
	for len(x.rows) < shards {
		x.rows = append(x.rows, nil)
	}
	x.rows = x.rows[:shards]
	for i := range x.rows {
		x.rows[i] = x.rows[i][:0]
	}
}

// finish populates rep's extraction fields from the survivor rows
// x.rows[i] of buffers[i]: counts, resolved minimum support, mining
// result, maximal item-sets, and cost reduction. Transaction ids follow
// the concatenation of the row lists in shard order. Both extraction
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
		rep.CostReduction = cost.Reduction(rep.TotalFlows, 0)
		return nil
	}
	rep.MinSupport = supportFor(cfg, rep.SuspiciousFlows)

	if cfg.Miner == nil {
		rep.Mining = x.eclat.MineColumns(buffers, x.rows, cfg.QuantizeSizes, rep.MinSupport)
	} else {
		// The one fork: an injected miner takes row-form transactions,
		// built from the columns by survivor index.
		txs := make([]itemset.Transaction, 0, rep.SuspiciousFlows)
		for i, rows := range x.rows {
			txs = itemset.AppendRows(txs, buffers[i], rows)
		}
		if cfg.QuantizeSizes {
			txs = itemset.QuantizeAll(txs, itemset.SizeKinds...)
		}
		res, err := cfg.Miner.Mine(txs, rep.MinSupport)
		if err != nil {
			return fmt.Errorf("core: mining interval %d: %w", rep.Interval, err)
		}
		rep.Mining = res
	}
	rep.ItemSets = rep.Mining.Maximal
	rep.CostReduction = cost.Reduction(rep.TotalFlows, len(rep.ItemSets))
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
	rep := &Report{TotalFlows: len(recs), Alarm: true}
	buf := flow.BufferOf(recs)
	var x extraction
	x.reset(1)
	x.rows[0] = prefilter.SelectBuffer(cfg.Prefilter, meta, &buf, cfg.Workers, nil)
	if err := x.finish(cfg, rep, []*flow.Buffer{&buf}); err != nil {
		return nil, err
	}
	return rep, nil
}

// EndIntervalGroup closes one measurement interval in lockstep across a
// group of shard pipelines (see closeGroup); a single pipeline is a
// group of one. Every pipeline must share the detector configuration; the
// pipelines must not observe flows concurrently with the group close (the
// shard package serializes this). The report is byte-identical to a
// single pipeline having observed the whole stream — only the
// KeepSuspicious forensic slice regroups by shard.
//
// The synchronous close locks the group and lends its live state to the
// close in place. It is deliberately not BeginIntervalGroup + Finish:
// that swap keeps a second interval state (clone sets, value-table
// arenas, buffer columns) alive per pipeline, which a caller that never
// overlaps closes with ingestion pays in resident memory for nothing.
func EndIntervalGroup(group []*Pipeline) (*Report, error) {
	if err := checkGroup(group); err != nil {
		return nil, err
	}
	sets := make([][]*histogram.CloneSet, len(group))
	buffers := make([]*flow.Buffer, len(group))
	for i, p := range group {
		p.mu.Lock()
		defer p.mu.Unlock()
		sets[i], buffers[i] = p.bank.LiveInterval(), &p.buffer
	}
	return closeGroup(group, sets, buffers)
}

// checkGroup validates a group before any close entry point locks or
// drains it: non-empty, no pipeline twice (locking one twice would
// self-deadlock instead of erroring), and every sibling's detector bank
// mergeable into the primary's.
func checkGroup(group []*Pipeline) error {
	if len(group) == 0 {
		return fmt.Errorf("core: empty pipeline group")
	}
	for i, p := range group {
		for _, q := range group[i+1:] {
			if p == q {
				return fmt.Errorf("core: duplicate pipeline in group")
			}
		}
		if i > 0 {
			if err := group[0].bank.Mergeable(p.bank); err != nil {
				return err
			}
		}
	}
	return nil
}

// closeGroup is the one interval close (Fig. 3), over one clone set per
// detector and one flow buffer per shard — the group's live state lent
// by a synchronous close, or the state a pipelined close drained earlier:
//
//  1. the sibling shards' value tables merge into the primary's (sets[0];
//     exact mergeable sketches, one fold per feature) and detection
//     derives the clones' bins once, from the merged tables, and closes
//     against the primary bank's history;
//  2. on an alarm, every shard's flow buffer is prefiltered concurrently
//     (one goroutine per shard, each fanning further out over its
//     pipeline's Workers) to the row indices of its suspicious flows;
//     the per-shard index lists, read in shard order, name the flows a
//     scan of one merged buffer would find, in the same order, by one
//     parallel pass over buffers that never leave their shard;
//  3. the suspicious rows are mined once, where they lie (see
//     extraction), in the primary's scratch.
//
// Every clone set and buffer is left reset, on the error path too:
// detection history has rotated by the time mining can fail, so state
// left behind would be counted into the next interval a second time.
// Calls over the same primary must be serialized in interval order — the
// KL scheme compares each interval against the previous one. The caller
// must have validated the group (checkGroup) and must own every clone set
// and buffer for the duration of the call.
func closeGroup(group []*Pipeline, sets [][]*histogram.CloneSet, buffers []*flow.Buffer) (*Report, error) {
	primary := group[0]
	primary.bank.MergeDrained(sets[0], sets[1:])
	det := primary.bank.FinishInterval(sets[0])
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
		if primary.extract == nil {
			primary.extract = &extraction{}
		}
		x := primary.extract
		x.reset(len(group))
		var wg sync.WaitGroup
		for i, sh := range group {
			if buffers[i].Len() == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				x.rows[i] = prefilter.SelectBuffer(sh.cfg.Prefilter, det.Meta, buffers[i], sh.cfg.Workers, x.rows[i])
			}()
		}
		wg.Wait()
		err = x.finish(primary.cfg, rep, buffers)
	}
	for _, buf := range buffers {
		buf.Reset()
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}
