package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"anomalyx"
	"anomalyx/internal/flow"
	"anomalyx/internal/hash"
	"anomalyx/internal/netflow"
	"anomalyx/internal/tracegen"
)

// workload is one set of inputs and the path they are driven through.
type workload struct {
	name string
	why  string
	// classes is the cycle of event classes scheduled into the trace,
	// one event every eventEvery-th interval; nil schedules none.
	classes []tracegen.Class
	shards  int  // engine shards (1 = a single pipeline)
	depth   int  // engine PipelineDepth
	agents  int  // >0: that many agent sessions into one loopback collector
	offline bool // tableii_offline: ExtractOffline on the Table II scenario
}

// The class cycles put three events of the class the workload is named
// for before one of its sibling class. An even alternation would set the
// median alarm close on the gap between the two classes' cost modes,
// where it jumps between them from seed to seed.
var (
	floodClasses = []tracegen.Class{tracegen.Flooding, tracegen.Flooding, tracegen.Flooding, tracegen.DDoS}
	scanClasses  = []tracegen.Class{tracegen.Scanning, tracegen.Scanning, tracegen.Scanning, tracegen.Backscatter}
)

var workloads = []workload{
	{name: "quiet_ingest", shards: 1, depth: 1,
		why: "benign-only intervals: decode, submit, histogram update and the no-alarm close do all the work; the no-change workload for extraction and wire changes"},
	{name: "flood_extract", classes: floodClasses, shards: 1, depth: 1,
		why: "flooding/DDoS events: few heavy values, a large suspicious set collapsing into deep item-sets, so prefilter, item-set build and mining set the alarm close"},
	{name: "scan_cardinality", classes: scanClasses, shards: 1, depth: 1,
		why: "scanning/backscatter events: every anomalous flow carries fresh values, so value tables grow and the miner sees a wide, shallow item space"},
	{name: "tableii_offline", offline: true,
		why: "the paper's Table II example (350872 flows, minimum support 10000) through ExtractOffline: extraction is all the work, on the row-form prefilter path"},
	{name: "sharded_pipelined", classes: floodClasses, shards: 2, depth: 2,
		why: "the flood_extract trace through two shards at pipeline depth 2: the only workload where shard partitioning, the cross-shard merge and BeginClose/Finish carry load"},
	{name: "agents_loopback", classes: floodClasses, shards: 1, depth: 1, agents: 2,
		why: "the flood_extract trace split over two agent sessions into one collector on 127.0.0.1 (loopback, no real link): drain, wire codec, absorb and ack carry load"},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizes scale a run. defaultSizes is the benchmark; tests shrink them.
type sizes struct {
	BaseFlows   int // benign flows per interval
	Warm        int // warm-up intervals streamed during set-up
	Measured    int // intervals per measured pass
	EventEvery  int // one scheduled event every this many intervals
	TableSample int // keep every n-th Table II flow (1 = the paper's input)
	Setups      int // set-ups per run; setup_s is their median
}

// One event every eighth interval: the detector's MAD threshold breaks
// down once half of the KL first differences are anomalous, and every
// event contributes two (its rise and its fall), so at a spacing of four
// whole seeds stop alarming once the history window has filled with
// events; at eight a quarter of the differences are anomalous and recall
// holds.
var defaultSizes = sizes{BaseFlows: 6000, Warm: 16, Measured: 256, EventEvery: 8, TableSample: 1, Setups: 3}

const (
	defaultSeed  = 20071203
	batchRecords = 512 // records per SubmitBatch, as cmd/anomalyx submits
	engineBuffer = 8   // EngineConfig.Buffer: bounds the producer's lead to 8 batches
	intervalLen  = 15 * time.Minute
	relSupport   = 0.05 // core.Config's default relative minimum support
)

// partitionFn splits the trace between agents: a seeded hash of the
// stable flow key, as a deployment's load balancer would.
var partitionFn = hash.New(0xa9e27)

// pipelineConfig is the detection configuration of every streamed
// workload: the paper's defaults, one worker per pipeline.
func pipelineConfig() anomalyx.Config { return anomalyx.Config{Workers: 1} }

// trace is one generated input: warm-up and measured v5 files, one pair
// per partition, plus what the checks need to know about them.
type trace struct {
	dir      string
	warm     []string // per partition
	meas     []string
	startMs  int64 // start of interval 0
	stepMs   int64
	warmN    int
	measN    int
	events   map[int]tracegen.GroundTruthEvent // measured interval index -> scheduled event
	warmRecs int
	passRecs int // records in one measured pass
}

// passShiftMs is how far pass p's timestamps are shifted so that the
// measured file can be replayed back to back.
func (t *trace) passShiftMs(p int) int64 { return int64(p) * int64(t.measN) * t.stepMs }

// intervalEnd is the end of measured interval j of pass p on the grid.
func (t *trace) intervalEnd(p, j int) int64 {
	return t.startMs + int64(t.warmN+j+1)*t.stepMs + t.passShiftMs(p)
}

func (t *trace) remove() { os.RemoveAll(t.dir) }

// generate builds the workload's trace from seed and writes it as v5
// files under dir.
func generate(wl *workload, sz sizes, seed uint64, dir string) (*trace, error) {
	cfg := tracegen.DefaultConfig()
	cfg.Seed = seed
	cfg.IntervalLen = intervalLen
	cfg.Intervals = sz.Warm + sz.Measured
	cfg.BaseFlows = sz.BaseFlows
	// No day/night cycle: the measured file is replayed back to back, and
	// the wrap from its last interval to its first must look like any
	// other quiet boundary to the detector.
	cfg.DiurnalAmplitude = 0
	cfg.Events = nil
	if wl.classes != nil {
		// Events sit mid-cycle, so neither the first nor the last measured
		// interval carries one and no two event intervals are adjacent.
		for j, k := sz.EventEvery/2, 0; j < sz.Measured; j, k = j+sz.EventEvery, k+1 {
			cfg.Events = append(cfg.Events, tracegen.Event{
				ID: k, Class: wl.classes[k%len(wl.classes)],
				Start: sz.Warm + j, End: sz.Warm + j, Flows: sz.BaseFlows / 2,
			})
		}
	}
	gen := tracegen.New(cfg)

	parts := max(wl.agents, 1)
	t := &trace{
		dir: dir, startMs: cfg.IntervalStart(0), stepMs: intervalLen.Milliseconds(),
		warmN: sz.Warm, measN: sz.Measured,
		events: make(map[int]tracegen.GroundTruthEvent),
	}
	for j := 0; j < sz.Measured; j++ {
		if evs := gen.EventsAt(sz.Warm + j); len(evs) > 0 {
			t.events[j] = evs[0]
		}
	}
	write := func(tag string, from, to int) ([]string, error) {
		paths := make([]string, parts)
		files := make([]*os.File, parts)
		writers := make([]*netflow.Writer, parts)
		for p := range paths {
			paths[p] = filepath.Join(dir, fmt.Sprintf("%s-%d.nf5", tag, p))
			f, err := os.Create(paths[p])
			if err != nil {
				return nil, err
			}
			defer f.Close()
			files[p], writers[p] = f, netflow.NewWriter(f, t.startMs)
		}
		for i := from; i < to; i++ {
			recs := gen.Interval(i)
			for r := range recs {
				p := 0
				if parts > 1 {
					p = partitionFn.Bin(recs[r].Key(), parts)
				}
				if err := writers[p].Write(recs[r]); err != nil {
					return nil, err
				}
			}
			if i < sz.Warm {
				t.warmRecs += len(recs)
			} else {
				t.passRecs += len(recs)
			}
		}
		for p := range writers {
			if err := writers[p].Flush(); err != nil {
				return nil, err
			}
			if err := files[p].Close(); err != nil {
				return nil, err
			}
		}
		return paths, nil
	}
	var err error
	if t.warm, err = write("warm", 0, sz.Warm); err != nil {
		return nil, err
	}
	if t.meas, err = write("meas", sz.Warm, sz.Warm+sz.Measured); err != nil {
		return nil, err
	}
	return t, nil
}

// streamFile decodes one v5 file with netflow.Reader, shifts every
// timestamp by shiftMs, and hands the records to submit in batches of
// batchRecords. It returns the number of records read.
func streamFile(path string, shiftMs int64, submit func([]flow.Record) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := netflow.NewReader(f)
	batch := make([]flow.Record, 0, batchRecords)
	n := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		rec.Start += shiftMs
		rec.End += shiftMs
		batch = append(batch, rec)
		n++
		if len(batch) == batchRecords {
			if err := submit(batch); err != nil {
				return n, err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		return n, submit(batch)
	}
	return n, nil
}

// matches reports whether any of the maximal item-sets carries a value
// of the event's signature (tracegen's ground-truth rule).
func matches(ev *tracegen.GroundTruthEvent, sets []anomalyx.ItemSet) bool {
	for i := range sets {
		fvs := make([]tracegen.FeatureValue, len(sets[i].Items))
		for k, it := range sets[i].Items {
			fvs[k] = tracegen.FeatureValue{Kind: it.Kind, Value: it.Value}
		}
		if ev.Matches(fvs) {
			return true
		}
	}
	return false
}
