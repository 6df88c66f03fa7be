// Benchmarks regenerating every table and figure of the paper's
// evaluation (§III), plus the component and ablation benches DESIGN.md §5
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The per-experiment index mapping benches to paper artifacts is in
// DESIGN.md §4; measured outputs are recorded in EXPERIMENTS.md.
package anomalyx_test

import (
	"fmt"
	"sync"
	"testing"

	"anomalyx"
	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/experiments"
	"anomalyx/internal/flow"
	"anomalyx/internal/flowcache"
	"anomalyx/internal/histogram"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/mining/eclat"
	"anomalyx/internal/mining/fpgrowth"
	"anomalyx/internal/netflow"
	"anomalyx/internal/prefilter"
	"anomalyx/internal/stats"
	"anomalyx/internal/tracegen"
)

// Shared fixtures, built once.
var (
	tableIIOnce sync.Once
	tableIITxs  []itemset.Transaction
	tableIIData *tracegen.TableIIData

	runOnce sync.Once
	quickTR *experiments.TraceRun
)

func tableIIFixture(b *testing.B) ([]itemset.Transaction, *tracegen.TableIIData) {
	b.Helper()
	tableIIOnce.Do(func() {
		tableIIData = tracegen.TableIIScenario(20071203)
		tableIITxs = itemset.FromFlows(tableIIData.Flows)
	})
	return tableIITxs, tableIIData
}

func quickRun(b *testing.B) *experiments.TraceRun {
	b.Helper()
	runOnce.Do(func() {
		tr, err := experiments.Run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		quickTR = tr
	})
	return quickTR
}

// BenchmarkTableII regenerates the §II-B worked example the way the
// pipeline runs it: the 350 872-flow input prefiltered by the alarm's
// dstPort meta-data and mined at minimum support 10 000 through
// core.ExtractOffline's default path (columnar prefilter + built-in
// Eclat; the facade's ExtractOffline still defaults to Apriori).
// BenchmarkMinerApriori times the paper's own miner on the same input.
func BenchmarkTableII(b *testing.B) {
	_, data := tableIIFixture(b)
	meta := anomalyx.NewMetaData()
	for _, port := range []uint64{7000, 80, 9022, 25} {
		meta.Add(anomalyx.DstPort, port)
	}
	cfg := anomalyx.Config{MinSupport: data.MinSupport, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.ExtractOffline(cfg, data.Flows, meta)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.ItemSets) == 0 {
			b.Fatal("no item-sets")
		}
	}
}

// BenchmarkTableIV regenerates the per-class detection/extraction summary
// over the quick trace (full pipeline pass cached outside the timer).
func BenchmarkTableIV(b *testing.B) {
	tr := quickRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIV(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 extracts the srcIP KL time series from a cached run.
func BenchmarkFig4(b *testing.B) {
	tr := quickRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 reruns detection to the first flood and measures the
// iterative anomalous-bin identification.
func BenchmarkFig5(b *testing.B) {
	tr := quickRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 computes per-clone ROC curves over the cached run.
func BenchmarkFig6(b *testing.B) {
	tr := quickRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 evaluates the Eq. (2) voting-miss bound grid.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiments.Fig7(0.97); len(res.N) != 25 {
			b.Fatal("bad grid")
		}
	}
}

// BenchmarkFig8 evaluates the Eq. (3) normal-leak grid for b=1 and b=5.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(1, 1024)
		experiments.Fig8(5, 1024)
	}
}

// BenchmarkFig9Fig10Sweep runs the support sweep behind Figs. 9 and 10
// over the anomalous intervals at a single support value (the full sweep
// scales linearly in supports).
func BenchmarkFig9Fig10Sweep(b *testing.B) {
	tr := quickRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := experiments.RunSweep(tr, []int{1000})
		if err != nil {
			b.Fatal(err)
		}
		experiments.Fig9(sw)
		experiments.Fig10(sw)
	}
}

// Miner comparison (§III-E): identical workload, all three algorithms.

func benchMiner(b *testing.B, m mining.Miner) {
	txs, data := tableIIFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Mine(txs, data.MinSupport); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinerApriori(b *testing.B)  { benchMiner(b, apriori.New()) }
func BenchmarkMinerFPGrowth(b *testing.B) { benchMiner(b, fpgrowth.New()) }
func BenchmarkMinerEclat(b *testing.B)    { benchMiner(b, eclat.New()) }

// BenchmarkMinerSlidingWindow measures streaming ingestion plus a mine of
// a 50k-transaction window.
func BenchmarkMinerSlidingWindow(b *testing.B) {
	txs, _ := tableIIFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := eclat.NewWindow(50000)
		for j := 0; j < 100000 && j < len(txs); j++ {
			w.Push(txs[j])
		}
		if _, err := w.Mine(5000); err != nil {
			b.Fatal(err)
		}
	}
}

// Prefilter ablation (§II-A): union vs intersection over the Sasser
// interval.

func benchPrefilter(b *testing.B, s prefilter.Strategy) {
	d := tracegen.SasserScenario(1, 20000)
	meta := detector.NewMetaData()
	for _, stage := range d.Meta {
		for _, fv := range stage {
			meta.Add(fv.Kind, fv.Value)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefilter.Count(s, meta, d.Flows)
	}
}

func BenchmarkPrefilterUnion(b *testing.B)        { benchPrefilter(b, prefilter.Union{}) }
func BenchmarkPrefilterIntersection(b *testing.B) { benchPrefilter(b, prefilter.Intersection{}) }

// BenchmarkExtract measures the extraction stage alone — chunked
// parallel prefilter plus the built-in miner — via core.ExtractOffline
// over a 50k-flow interval with an injected dstPort flood. workers=1 is the sequential
// baseline; workers=0 fans the prefilter scan out over GOMAXPROCS
// chunks (the output is byte-identical, so the sweep measures pure
// scan parallelism; run with -cpu 1,4 to contrast).
func BenchmarkExtract(b *testing.B) {
	r := stats.NewRand(13)
	recs := make([]anomalyx.Flow, 50000)
	for i := range recs {
		recs[i] = anomalyx.Flow{
			SrcAddr: uint32(r.IntN(50000)), DstAddr: uint32(r.IntN(2000)),
			SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1500)),
			Protocol: 6, Packets: uint32(1 + r.IntN(20)), Bytes: uint64(100 + r.IntN(2000)),
		}
		if i%3 == 0 {
			recs[i].DstAddr, recs[i].DstPort = 42, 31337
			recs[i].Packets, recs[i].Bytes = 1, 40
		}
	}
	meta := anomalyx.NewMetaData()
	meta.Add(anomalyx.DstPort, 31337)
	meta.Add(anomalyx.DstIP, 42)
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := anomalyx.Config{Workers: workers}
			b.SetBytes(int64(len(recs)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := core.ExtractOffline(cfg, recs, meta)
				if err != nil {
					b.Fatal(err)
				}
				if rep.SuspiciousFlows == 0 {
					b.Fatal("nothing extracted")
				}
			}
		})
	}
}

// Maximal-output ablation: the cost of the paper's "modified" step.
func BenchmarkFilterMaximal(b *testing.B) {
	txs, data := tableIIFixture(b)
	res, err := apriori.New().Mine(txs, data.MinSupport)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.FilterMaximal(res.All)
	}
}

// Component benches: the per-flow hot path.

func BenchmarkHistogramAdd(b *testing.B) {
	h := histogram.New(1024, hashFunc(), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(uint64(i))
	}
}

func BenchmarkKL1024(b *testing.B) {
	p := make([]uint64, 1024)
	q := make([]uint64, 1024)
	r := stats.NewRand(1)
	for i := range p {
		p[i] = uint64(r.IntN(1000))
		q[i] = uint64(r.IntN(1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		histogram.KL(p, q)
	}
}

// BenchmarkDetectorInterval measures one full detector interval: 10k
// flows observed plus the end-of-interval KL/threshold work.
func BenchmarkDetectorInterval(b *testing.B) {
	d, err := detector.New(detector.Config{Feature: flow.DstPort, Bins: 1024})
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(2)
	recs := make([]flow.Record, 10000)
	for i := range recs {
		recs[i] = flow.Record{DstPort: uint16(r.IntN(5000))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ObserveBatch(recs)
		d.EndInterval()
	}
}

// BenchmarkPipelineInterval measures a full pipeline interval (five
// detectors, three clones) over one generated interval.
func BenchmarkPipelineInterval(b *testing.B) {
	tr := quickRun(b)
	recs := tr.Gen.Interval(3)
	p, err := newBenchPipeline()
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ProcessInterval(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
}

// BenchmarkPipelineParallel measures batched detector-bank throughput
// with the worker pool sized by GOMAXPROCS, so a -cpu sweep contrasts
// the sequential path (-cpu 1 collapses the pool to one worker) with the
// parallel fan-out over the (detector, clone) tasks:
//
//	go test -bench=PipelineParallel -cpu 1,4
func BenchmarkPipelineParallel(b *testing.B) {
	r := stats.NewRand(8)
	recs := make([]flow.Record, 20000)
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr: uint32(r.IntN(50000)), DstAddr: uint32(r.IntN(2000)),
			SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1500)),
			Protocol: 6, Packets: uint32(1 + r.IntN(20)), Bytes: uint64(100 + r.IntN(2000)),
		}
	}
	p, err := anomalyx.NewPipeline(anomalyx.Config{
		Detector: anomalyx.DetectorConfig{Bins: 1024, TrainIntervals: 4},
		Workers:  0, // GOMAXPROCS at construction — tracks the -cpu sweep
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ObserveBatch(recs)
		if _, err := p.EndInterval(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
}

// Extension benches.

// BenchmarkV9Codec round-trips 1000 flows through the v9 wire format.
func BenchmarkV9Codec(b *testing.B) {
	tr := quickRun(b)
	recs := tr.Gen.Interval(1)
	if len(recs) > 1000 {
		recs = recs[:1000]
	}
	bootMs := tr.Gen.Config().IntervalStart(0)
	enc := netflow.NewV9Encoder(bootMs, 559)
	dec := netflow.NewV9Decoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := enc.Encode(recs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Decode(pkt); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
}

// BenchmarkFlowCache meters 100k packets of a synthetic mix.
func BenchmarkFlowCache(b *testing.B) {
	r := stats.NewRand(5)
	pkts := make([]flowcache.Packet, 100000)
	ts := int64(0)
	for i := range pkts {
		ts += int64(r.IntN(3))
		pkts[i] = flowcache.Packet{
			SrcAddr: uint32(r.IntN(5000)), DstAddr: uint32(r.IntN(500)),
			SrcPort: uint16(r.IntN(30000)), DstPort: uint16(r.IntN(1000)),
			Protocol: 6, Bytes: 500, TsMs: ts,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := flowcache.New(flowcache.Config{})
		for j := range pkts {
			c.Observe(pkts[j])
		}
		c.Flush()
	}
	b.SetBytes(int64(len(pkts)))
}
