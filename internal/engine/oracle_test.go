package engine

import (
	"math/rand/v2"
	"slices"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
)

// FuzzOracleDraw holds the engine to the paper: a seed draws a trace, a
// pipeline configuration and an engine shape, and the engine's reports
// must be gridtest.Equal to gridtest.Oracle's over the same trace. The
// corpus is seeds 0–199 (0–39 under -short), each its own subtest, so
// -run 'FuzzOracleDraw/seed#N$' replays one. A draw is
//   - the trace: 6, 10 or 14 intervals of 5–2000 base flows, with a
//     flood interval or none, records shuffled within each interval, and
//     each interval strictly inside the trace emptied or cut to one
//     record at random (the engine seeds its grid at the first record
//     and learns of the last interval only from its records);
//   - the configuration: the default features or a random non-empty
//     subset of the seven in random order; bins {2, 7, 64, 256, 1024},
//     clones {1, 2, 3, 5}, votes 1..clones, alpha {0.5, 1, 2, 3}; train
//     {1, 2, 4}, window {4, 8, 192}, MaxRemoveBins {-1, 1, 4, 32} and a
//     random hash seed; an absolute support of at least 5 or a relative
//     one of {0.05, 0.25, 1}; KeepSuspicious on or off;
//   - the engine: shards {1, 2, 3}, Workers {0, 1, 2, 4}, PipelineDepth
//     {1, 2}, and batches of {1, 7, 512} records or one per interval.
//
// The support stays at 5 or above (or relative) because the oracle's
// Apriori enumerates every frequent set, and at support 1 a flood
// interval has tens of thousands.
func FuzzOracleDraw(f *testing.F) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := range seeds {
		f.Add(uint64(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		trace, cfg, batch := drawOracle(seed)
		batches := trace
		if batch > 0 {
			batches = batched(slices.Concat(trace...), batch)
		}
		got := runEngine(t, cfg, batches)
		gridtest.Equal(t, got, gridtest.Oracle(cfg.Pipeline, trace), max(cfg.Shards, 1))
	})
}

// drawOracle draws seed's trace and engine configuration; a zero batch
// submits the trace one interval per batch.
func drawOracle(seed uint64) ([][]flow.Record, Config, int) {
	rng := rand.New(rand.NewPCG(seed, 0x0dd5eed))
	pick := func(xs ...int) int { return xs[rng.IntN(len(xs))] }

	intervals := pick(6, 10, 14)
	floodAt := -1
	if rng.IntN(2) == 0 {
		floodAt = rng.IntN(intervals)
	}
	trace := gridtest.Trace(intervals, 5+rng.IntN(1996), floodAt)
	for i, recs := range trace {
		rng.Shuffle(len(recs), func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
		if i > 0 && i < intervals-1 && rng.IntN(8) == 0 {
			trace[i] = recs[:rng.IntN(2)]
		}
	}

	var pcfg core.Config
	if rng.IntN(2) == 0 {
		perm := rng.Perm(flow.NumFeatures)
		for _, f := range perm[:1+rng.IntN(flow.NumFeatures)] {
			pcfg.Features = append(pcfg.Features, flow.FeatureKind(f))
		}
	}
	clones := pick(1, 2, 3, 5)
	pcfg.Detector = detector.Config{
		Bins:           pick(2, 7, 64, 256, 1024),
		Clones:         clones,
		Votes:          1 + rng.IntN(clones),
		Alpha:          []float64{0.5, 1, 2, 3}[rng.IntN(4)],
		TrainIntervals: pick(1, 2, 4),
		HistoryWindow:  pick(4, 8, 192),
		MaxRemoveBins:  pick(-1, 1, 4, 32),
		Seed:           rng.Uint64(),
	}
	if rng.IntN(2) == 0 {
		pcfg.MinSupport = 5 + rng.IntN(96)
	} else {
		pcfg.RelativeSupport = []float64{0.05, 0.25, 1}[rng.IntN(3)]
	}
	pcfg.KeepSuspicious = rng.IntN(2) == 0
	pcfg.Workers = pick(0, 1, 2, 4)

	cfg := Config{Pipeline: pcfg, Shards: pick(1, 2, 3), IntervalLen: gridtest.IntervalLen, PipelineDepth: pick(1, 2)}
	return trace, cfg, pick(1, 7, 512, 0)
}
