package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"anomalyx"
	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/hash"
	"anomalyx/internal/histogram"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/mining/eclat"
	"anomalyx/internal/netflow"
	"anomalyx/internal/prefilter"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// The staged replay is the traced run's per-layer instrument. This PR
// may not touch the layers, so instead of spans inside them the harness
// walks the trace interval by interval on one goroutine and performs the
// pipeline's steps itself through the layers' exported functions, with a
// span around every call. A twin — the real composite (core.Pipeline,
// shard.ShardedPipeline, or agent pipelines plus a collector) — is fed
// the same records, so the composite calls get spans too and the staged
// steps' item-sets can be held to the composite's report.

type replayMode int

const (
	modePlain  replayMode = iota // no instrumentation: the untraced timing passes
	modeTraced                   // one span per call
	modeAlloc                    // runtime.MemStats deltas around every call
)

// allocStat accumulates the MemStats deltas of one span name.
type allocStat struct {
	calls  int
	n      int64
	allocs uint64
	bytes  uint64
}

func (a *allocStat) allocsPer() float64     { return ratio(float64(a.allocs), float64(a.n)) }
func (a *allocStat) bytesPer() float64      { return ratio(float64(a.bytes), float64(a.n)) }
func (a *allocStat) allocsPerCall() float64 { return ratio(float64(a.allocs), float64(a.calls)) }

// intervalReader reads one v5 file interval by interval.
type intervalReader struct {
	f     *os.File
	r     *netflow.Reader
	shift int64
	look  flow.Record
	have  bool
	errs  int
}

func openIntervals(path string, shiftMs int64) (*intervalReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &intervalReader{f: f, r: netflow.NewReader(f), shift: shiftMs}, nil
}

// next appends to dst up to limit records that start before endMs and
// reports whether the interval (or the file) is exhausted.
func (ir *intervalReader) next(endMs int64, limit int, dst []flow.Record) ([]flow.Record, bool) {
	for n := 0; n < limit; n++ {
		if !ir.have {
			rec, err := ir.r.Next()
			if err != nil {
				if err != io.EOF {
					ir.errs++
				}
				return dst, true
			}
			rec.Start += ir.shift
			rec.End += ir.shift
			ir.look, ir.have = rec, true
		}
		if ir.look.Start >= endMs {
			return dst, true
		}
		dst = append(dst, ir.look)
		ir.have = false
	}
	return dst, false
}

// stagedResult is what the harness's own walk through the layers
// produced for one interval.
type stagedResult struct {
	alarm      bool
	suspicious int
	minsup     int
	maximal    []itemset.Set
}

// intervalInfo classifies a replayed interval for the span statistics.
type intervalInfo struct {
	alarm     bool
	extracted bool // the staged steps mined at least one maximal item-set
}

type replay struct {
	mode replayMode

	tracer *tracer
	alloc  map[string]*allocStat
	info   []intervalInfo // by tracer interval index

	// Wall time of the completed traced and untraced blocks; their ratio
	// is the tracing overhead.
	blockStart      time.Time
	tracedS, plainS []float64

	sources []*intervalReader // one per trace file
	recs    [][]flow.Record   // the open interval's records, per source
	parts   int

	// The staged layer state: one bank and buffer per partition.
	banks    []*detector.Bank
	bufs     []flow.Buffer
	strategy prefilter.Strategy
	miner    mining.Miner
	eclat    mining.Miner
	sub      [][]flow.Record // scratch: one batch split by shard

	twin twin

	// histogram microbenchmark: one warm histogram per detector feature.
	hists    []*histogram.Histogram
	histVals []uint64
	distinct []float64 // per sampled interval, summed over features

	decodeErrs int
	shardMax   int64 // records of each interval's largest partition, summed
	shardAll   int64 // records of all partitions, summed
	sets       struct{ frequent, maximal, alarms int }
	suspShare  struct{ selected, scanned int64 }
}

// twin is the real composite fed next to the staged steps.
type twin interface {
	observe(r *replay, source int, batch []flow.Record)
	close(r *replay, boundary int64, syncClose bool) (*core.Report, error)
	shutdown() error
}

func newReplay(wl *workload, tr *trace) (*replay, error) {
	r := &replay{
		tracer: newTracer(), alloc: make(map[string]*allocStat),
		strategy: prefilter.Union{}, miner: apriori.New(), eclat: eclat.New(),
		parts: max(wl.shards, wl.agents, 1),
	}
	r.recs = make([][]flow.Record, len(tr.meas))
	r.bufs = make([]flow.Buffer, r.parts)
	r.sub = make([][]flow.Record, r.parts)
	cfg := pipelineConfig()
	for p := 0; p < r.parts; p++ {
		b, err := detector.NewBank(detector.BankConfig{Features: cfg.Features, Template: cfg.Detector, Workers: 1})
		if err != nil {
			return nil, err
		}
		r.banks = append(r.banks, b)
	}
	for _, k := range flow.DetectorFeatures {
		r.hists = append(r.hists, histogram.New(1024, hash.New(uint64(k)), true))
	}
	var err error
	switch {
	case wl.agents > 0:
		r.twin, err = newAgentTwin(cfg, wl.agents)
	case wl.shards > 1:
		var sp *shard.ShardedPipeline
		sp, err = shard.New(shard.Config{Shards: wl.shards, Pipeline: cfg})
		r.twin = &shardTwin{sp: sp}
	default:
		var p *core.Pipeline
		p, err = core.New(cfg)
		r.twin = &pipeTwin{p: p}
	}
	return r, err
}

func (r *replay) shutdown() error {
	for _, b := range r.banks {
		b.Close()
	}
	r.closeSources()
	return r.twin.shutdown()
}

func (r *replay) closeSources() {
	for _, s := range r.sources {
		r.decodeErrs += s.errs
		s.f.Close()
	}
	r.sources = nil
}

func (r *replay) open(paths []string, shiftMs int64) error {
	r.closeSources()
	for _, p := range paths {
		s, err := openIntervals(p, shiftMs)
		if err != nil {
			return err
		}
		r.sources = append(r.sources, s)
	}
	return nil
}

// stage runs one call into a layer under the current mode's
// instrumentation; f returns the number of records (or transactions)
// the call was handed.
func (r *replay) stage(name string, f func() int) {
	switch r.mode {
	case modeTraced:
		i := r.tracer.begin(name)
		r.tracer.end(i, f())
	case modeAlloc:
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		n := f()
		runtime.ReadMemStats(&b)
		st := r.alloc[name]
		if st == nil {
			st = &allocStat{}
			r.alloc[name] = st
		}
		st.calls++
		st.n += int64(n)
		st.allocs += b.Mallocs - a.Mallocs
		st.bytes += b.TotalAlloc - a.TotalAlloc
	default:
		f()
	}
}

// group puts a span around several stages; it has no allocation
// statistics of its own.
func (r *replay) group(name string, f func()) {
	if r.mode != modeTraced {
		f()
		return
	}
	i := r.tracer.begin(name)
	f()
	r.tracer.end(i, 0)
}

// beginBlock starts the replay's b-th block: block 0 counts
// allocations, after it traced and untraced blocks alternate.
func (r *replay) beginBlock(b int) {
	switch {
	case b == 0:
		r.mode = modeAlloc
	case b%2 == 1:
		r.mode = modeTraced
	default:
		r.mode = modePlain
	}
	r.blockStart = time.Now()
}

// endBlock records the finished block's wall time.
func (r *replay) endBlock() {
	switch r.mode {
	case modeTraced:
		r.tracedS = append(r.tracedS, time.Since(r.blockStart).Seconds())
	case modePlain:
		r.plainS = append(r.plainS, time.Since(r.blockStart).Seconds())
	}
}

// interval replays one measurement interval ending at endMs: decode,
// staged ingest, twin ingest, staged close, twin close. It returns the
// twin's report and the staged steps' result.
func (r *replay) interval(endMs int64, slot, syncClose bool) (*core.Report, stagedResult, error) {
	r.tracer.interval = len(r.info)
	var res stagedResult
	var rep *core.Report
	var err error
	r.group("interval", func() {
		r.decode(endMs)
		r.group("staged.ingest", r.stagedIngest)
		r.group("twin.ingest", func() {
			for s, recs := range r.recs {
				for lo := 0; lo < len(recs); lo += batchRecords {
					r.twin.observe(r, s, recs[lo:min(lo+batchRecords, len(recs))])
				}
			}
		})
		if r.mode == modeTraced && slot {
			r.histogramBench()
		}
		r.group("staged.close", func() { res = r.stagedClose() })
		r.group("twin.close", func() { rep, err = r.twin.close(r, endMs, syncClose) })
	})
	r.info = append(r.info, intervalInfo{alarm: res.alarm, extracted: len(res.maximal) > 0})
	return rep, res, err
}

// decode reads the interval's records from every source through
// netflow.Reader.Next, one span per batchRecords calls.
func (r *replay) decode(endMs int64) {
	for s, src := range r.sources {
		recs := r.recs[s][:0]
		for done := false; !done; {
			r.stage("netflow.decode", func() int {
				before := len(recs)
				recs, done = src.next(endMs, batchRecords, recs)
				return len(recs) - before
			})
		}
		r.recs[s] = recs
	}
}

// stagedIngest performs Pipeline.ObserveBatch's two steps itself, per
// partition: the row-to-column append and the detector-bank update.
func (r *replay) stagedIngest() {
	largest, all := 0, 0
	counts := make([]int, r.parts)
	for s, recs := range r.recs {
		for lo := 0; lo < len(recs); lo += batchRecords {
			batch := recs[lo:min(lo+batchRecords, len(recs))]
			for p, sub := range r.partition(s, batch) {
				if len(sub) == 0 {
					continue
				}
				counts[p] += len(sub)
				r.stage("flow.append", func() int { r.bufs[p].AppendRecords(sub); return len(sub) })
				r.stage("detector.observe", func() int { r.banks[p].ObserveBatch(sub); return len(sub) })
			}
		}
	}
	for _, c := range counts {
		largest = max(largest, c)
		all += c
	}
	r.shardMax += int64(largest)
	r.shardAll += int64(all)
}

// partition maps one source's batch onto the staged partitions: the
// source itself when every partition has its own file, the sharded
// pipeline's hash otherwise.
func (r *replay) partition(source int, batch []flow.Record) [][]flow.Record {
	for p := range r.sub {
		r.sub[p] = r.sub[p][:0]
	}
	st, sharded := r.twin.(*shardTwin)
	if !sharded {
		r.sub[source] = append(r.sub[source], batch...)
		return r.sub
	}
	for i := range batch {
		p := st.sp.ShardOf(&batch[i])
		r.sub[p] = append(r.sub[p], batch[i])
	}
	return r.sub
}

// stagedClose performs the interval close's steps itself: cross-shard
// merge, detection, prefilter, item-set build, mining.
func (r *replay) stagedClose() stagedResult {
	var res stagedResult
	if r.parts > 1 {
		r.stage("detector.merge", func() int {
			if err := r.banks[0].AbsorbGroup(r.banks[1:]); err != nil {
				panic(err) // equal configurations by construction
			}
			return r.parts - 1
		})
	}
	var det detector.BankResult
	r.stage("detector.finish", func() int { det = r.banks[0].EndInterval(); return 1 })
	res.alarm = det.Alarm
	if det.Alarm && det.Meta.Count() > 0 {
		var suspicious []flow.Record
		for p := range r.bufs {
			r.stage("prefilter.scan", func() int {
				suspicious = append(suspicious, prefilter.FilterBufferParallel(r.strategy, det.Meta, &r.bufs[p], 1)...)
				return r.bufs[p].Len()
			})
			r.suspShare.scanned += int64(r.bufs[p].Len())
		}
		r.suspShare.selected += int64(len(suspicious))
		res.suspicious = len(suspicious)
		if len(suspicious) > 0 {
			res.minsup = max(1, int(relSupport*float64(len(suspicious))))
			res.maximal = r.mine(suspicious, res.minsup)
		}
	}
	for p := range r.bufs {
		r.bufs[p].Reset()
	}
	return res
}

// mine builds the transactions and mines them with the pipeline's miner
// and, outside the close it decomposes, with Eclat on the same input.
func (r *replay) mine(suspicious []flow.Record, minsup int) []itemset.Set {
	var txs []itemset.Transaction
	r.stage("itemset.build", func() int { txs = itemset.FromFlows(suspicious); return len(txs) })
	var out *mining.Result
	r.stage("mining.mine", func() int {
		var err error
		if out, err = r.miner.Mine(txs, minsup); err != nil {
			panic(err) // minsup >= 1 and txs non-empty by construction
		}
		return len(txs)
	})
	r.stage("mining.eclat", func() int {
		if _, err := r.eclat.Mine(txs, minsup); err != nil {
			panic(err)
		}
		return len(txs)
	})
	r.countSets(out)
	return out.Maximal
}

// countSets records one mining result for the per-alarm set counts.
func (r *replay) countSets(res *mining.Result) {
	r.sets.alarms++
	r.sets.frequent += len(res.All)
	r.sets.maximal += len(res.Maximal)
}

// histogramBench times warm-arena Add over the open interval's own
// feature values, and Snapshot of the loaded histograms.
func (r *replay) histogramBench() {
	distinct := 0
	for i, k := range flow.DetectorFeatures {
		vals := r.histVals[:0]
		for p := range r.bufs {
			for row := 0; row < r.bufs[p].Len(); row++ {
				vals = append(vals, r.bufs[p].Feature(row, k))
			}
		}
		r.histVals = vals
		h := r.hists[i]
		r.stage("histogram.add", func() int {
			for _, v := range vals {
				h.Add(v)
			}
			return len(vals)
		})
		r.stage("histogram.snapshot", func() int {
			for _, bin := range h.Snapshot().Values {
				distinct += len(bin)
			}
			return 1
		})
		h.Reset()
	}
	r.distinct = append(r.distinct, float64(distinct))
}

// pipeTwin is a single core.Pipeline closed synchronously.
type pipeTwin struct{ p *core.Pipeline }

func (t *pipeTwin) observe(r *replay, _ int, batch []flow.Record) {
	r.stage("core.observe", func() int { t.p.ObserveBatch(batch); return len(batch) })
}

func (t *pipeTwin) close(r *replay, _ int64, _ bool) (rep *core.Report, err error) {
	r.stage("core.end_interval", func() int { rep, err = t.p.EndInterval(); return 1 })
	return rep, err
}

func (t *pipeTwin) shutdown() error { t.p.Close(); return nil }

// shardTwin is a ShardedPipeline closed the pipelined way (BeginClose
// then Finish, what the engine runs at depth 2) or, on syncClose
// passes, through EndInterval; both leave the same state behind.
type shardTwin struct{ sp *shard.ShardedPipeline }

func (t *shardTwin) observe(r *replay, _ int, batch []flow.Record) {
	r.stage("shard.observe", func() int { t.sp.ObserveBatch(batch); return len(batch) })
}

func (t *shardTwin) close(r *replay, _ int64, syncClose bool) (rep *core.Report, err error) {
	if syncClose {
		r.stage("shard.end_interval", func() int { rep, err = t.sp.EndInterval(); return 1 })
		return rep, err
	}
	var pc *core.PendingClose
	r.stage("core.begin_close", func() int { pc, err = t.sp.BeginClose(); return 1 })
	if err != nil {
		return nil, err
	}
	r.stage("core.finish", func() int { rep, err = pc.Finish(); return 1 })
	return rep, err
}

func (t *shardTwin) shutdown() error { t.sp.Close(); return nil }

// agentTwin is the agent/collector hand-off: per agent a pipeline that
// is drained at every boundary, the codec round trip of the drained
// interval, and the absorb into a collector-side primary pipeline that
// closes detection. Beside these in-memory halves the same drained
// interval is shipped through a real wire.Agent to a real
// wire.Collector on loopback, to time ship-to-ack.
type agentTwin struct {
	pipes   []*core.Pipeline
	primary *core.Pipeline

	agents   []*wire.Agent
	coll     *wire.Collector
	serveErr chan error
	emitted  chan *core.Report

	frameBytes int64
	frameRecs  int64
}

func newAgentTwin(cfg core.Config, agents int) (*agentTwin, error) {
	t := &agentTwin{serveErr: make(chan error, 1), emitted: make(chan *core.Report, 4)}
	var err error
	if t.primary, err = core.New(cfg); err != nil {
		return nil, err
	}
	for i := 0; i < agents; i++ {
		p, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		t.pipes = append(t.pipes, p)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if t.coll, err = wire.NewCollector(cfg, wire.CollectorConfig{Agents: agents}); err != nil {
		ln.Close()
		return nil, err
	}
	//detlint:ok goroutines -- the loopback collector the replay ships to; joined on serveErr in shutdown
	go func() {
		t.serveErr <- t.coll.Serve(context.Background(), ln, func(rep *core.Report) error {
			t.emitted <- rep
			return nil
		})
	}()
	for i := 0; i < agents; i++ {
		a, err := wire.DialAgent(ln.Addr().String(), i, cfg, wire.AgentOptions{})
		if err != nil {
			ln.Close()
			return nil, err
		}
		t.agents = append(t.agents, a)
	}
	return t, nil
}

func (t *agentTwin) observe(r *replay, source int, batch []flow.Record) {
	r.stage("core.observe", func() int { t.pipes[source].ObserveBatch(batch); return len(batch) })
}

func (t *agentTwin) close(r *replay, boundary int64, _ bool) (rep *core.Report, err error) {
	ois := make([]core.OpenInterval, len(t.pipes))
	for i, p := range t.pipes {
		r.stage("core.drain_open", func() int { ois[i] = p.DrainOpenInterval(); return ois[i].Buffer.Len() })
		// The lean OpenInterval has no exported byte codec of its own; the
		// exported pair works on the same interval in PipelineSnapshot
		// form (same record section, same dictionaries).
		snap := expandOpenInterval(ois[i])
		var frame []byte
		r.stage("wire.encode", func() int { frame, err = wire.EncodeOpenIntervalSnapshot(snap); return snap.Buffer.Len() })
		if err != nil {
			return nil, err
		}
		if r.mode == modeAlloc {
			// The first replay block only, so that the byte count is a
			// function of the seed and not of how long the run lasted.
			t.frameBytes += int64(len(frame))
			t.frameRecs += int64(snap.Buffer.Len())
		}
		var back core.PipelineSnapshot
		r.stage("wire.decode", func() int { back, err = wire.DecodeOpenIntervalSnapshot(frame); return back.Buffer.Len() })
		if err != nil {
			return nil, err
		}
		r.stage("core.absorb_open", func() int {
			err = t.primary.AbsorbOpenInterval(openIntervalOf(back))
			return back.Buffer.Len()
		})
		if err != nil {
			return nil, err
		}
	}
	r.stage("core.end_interval", func() int { rep, err = t.primary.EndInterval(); return 1 })
	if err != nil {
		return nil, err
	}
	// The real wire: ship both agents' intervals, wait for the collector
	// to merge, close and acknowledge the boundary.
	var wired *core.Report
	r.stage("wire.ship_ack", func() int {
		for i, a := range t.agents {
			if err = a.ShipOpenInterval(boundary, ois[i]); err != nil {
				return 0
			}
		}
		wired = <-t.emitted
		for _, a := range t.agents {
			for a.Acked() < boundary {
				time.Sleep(20 * time.Microsecond)
			}
		}
		return len(t.agents)
	})
	if err != nil {
		return nil, err
	}
	if got, want := renderString(wired), renderString(rep); got != want {
		return nil, fmt.Errorf("boundary %d: loopback collector's report differs from the in-memory absorb's:\n%s\nvs\n%s", boundary, got, want)
	}
	return rep, nil
}

func (t *agentTwin) shutdown() error {
	var first error
	for _, a := range t.agents {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := <-t.serveErr; err != nil && first == nil {
		first = err
	}
	t.coll.Close()
	t.primary.Close()
	for _, p := range t.pipes {
		p.Close()
	}
	return first
}

// expandOpenInterval puts a drained open interval into the
// PipelineSnapshot shape the exported codec takes: the clone histograms
// plus canonical empty detection history.
func expandOpenInterval(oi core.OpenInterval) core.PipelineSnapshot {
	s := core.PipelineSnapshot{Buffer: oi.Buffer}
	s.Bank.Detectors = make([]detector.Snapshot, len(oi.Clones))
	for i, clones := range oi.Clones {
		ds := detector.Snapshot{Clones: clones, Prev: make([][]uint64, len(clones)), KLPrev: make([]float64, len(clones))}
		for c := range clones {
			ds.Prev[c] = make([]uint64, len(clones[c].Counts))
		}
		s.Bank.Detectors[i] = ds
	}
	return s
}

// openIntervalOf is expandOpenInterval's inverse.
func openIntervalOf(s core.PipelineSnapshot) core.OpenInterval {
	oi := core.OpenInterval{Buffer: s.Buffer, Clones: make([][]histogram.Snapshot, len(s.Bank.Detectors))}
	for i, ds := range s.Bank.Detectors {
		oi.Clones[i] = ds.Clones
	}
	return oi
}

// sameExtraction reports how the staged steps' result differs from the
// twin's report, or "" when alarm flag, supports and maximal item-sets
// agree.
func sameExtraction(res stagedResult, rep *anomalyx.Report) string {
	switch {
	case res.alarm != rep.Alarm:
		return fmt.Sprintf("alarm %v, report %v", res.alarm, rep.Alarm)
	case res.suspicious != rep.SuspiciousFlows:
		return fmt.Sprintf("suspicious %d, report %d", res.suspicious, rep.SuspiciousFlows)
	case res.minsup != rep.MinSupport:
		return fmt.Sprintf("minsup %d, report %d", res.minsup, rep.MinSupport)
	case fmt.Sprintf("%+v", res.maximal) != fmt.Sprintf("%+v", rep.ItemSets):
		return fmt.Sprintf("item-sets %+v, report %+v", res.maximal, rep.ItemSets)
	}
	return ""
}
