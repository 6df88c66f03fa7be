package engine

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/shard"
)

// TestPipelinedGapsAndClockJump drives the counted-cut paths through the
// close worker: multi-interval gaps (one cut message closing several
// empty intervals) and a clock jump past maxGapIntervals (close once,
// re-seed the grid) must both match the synchronous close.
func TestPipelinedGapsAndClockJump(t *testing.T) {
	stream := slices.Concat(gridtest.Trace(3, 600, -1)...)
	step := gridtest.IntervalLen.Milliseconds()
	last := stream[len(stream)-1].Start
	// A 5-interval quiet gap, then one record, then a clock jump far past
	// the gap bound.
	rec := stream[0]
	rec.Start = last + 5*step
	rec.End = rec.Start
	stream = append(stream, rec)
	rec.Start += int64(maxGapIntervals+10) * step
	rec.End = rec.Start
	stream = append(stream, rec)

	cfg := Config{Pipeline: testConfig(1), IntervalLen: gridtest.IntervalLen}
	want := runEngine(t, cfg, [][]flow.Record{stream})
	cfg.PipelineDepth = 4
	gridtest.Equal(t, runEngine(t, cfg, [][]flow.Record{stream}), want, 1)
}

// TestPipelinedErrorSurfacesOnLiveStream mirrors the synchronous error
// contract for the close worker: a Finish failure must settle Err, close
// Reports early, and never wedge producers that keep submitting.
func TestPipelinedErrorSurfacesOnLiveStream(t *testing.T) {
	cfg := testConfig(2)
	cfg.Miner = errMiner{}
	eng, err := New(Config{Pipeline: cfg, IntervalLen: gridtest.IntervalLen, Buffer: 64, PipelineDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	errAtClose := make(chan error, 1)
	go func() {
		for range eng.Reports() {
		}
		errAtClose <- eng.Err()
	}()
	for _, rec := range slices.Concat(gridtest.Trace(10, 1000, 8)...) {
		eng.SubmitBatch([]flow.Record{rec}) // must not block after the close worker dies
	}
	if err := eng.Close(); err == nil {
		t.Fatal("Close error = nil, want the mining failure")
	}
	if err := <-errAtClose; err == nil {
		t.Fatal("Err() was nil when Reports closed")
	}
}

// TestCloseLeavesNoGoroutines: once Close returns, every goroutine the
// engine started — the processing loop, the close worker, the bank
// worker pools, the per-partition ingest and prefilter fan-out — has
// exited: for partitions {1, 2, 4} × depth {1, 2}, after a clean stream
// and after a close whose miner failed; and for shipping engines over
// partitions {1, 2}, after a clean stream and after a ship that failed.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	stream := slices.Concat(gridtest.Trace(10, 1000, 8)...)
	check := func(t *testing.T, newEngine func() (*Engine, error), failing bool) {
		t.Helper()
		gridtest.NoLeak(t)
		eng, err := newEngine()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range eng.Reports() {
			}
		}()
		eng.SubmitBatch(stream)
		if err := eng.Close(); (err != nil) != failing {
			t.Fatalf("Close error %v, want failure %v", err, failing)
		}
		<-done
	}
	for _, parts := range []int{1, 2, 4} {
		for _, depth := range []int{1, 2} {
			for _, failing := range []bool{false, true} {
				t.Run(fmt.Sprintf("partitions=%d/depth=%d/failing=%v", parts, depth, failing), func(t *testing.T) {
					cfg := testConfig(2)
					if failing {
						cfg.Miner = errMiner{}
					}
					check(t, func() (*Engine, error) {
						return New(Config{Pipeline: cfg, Shards: parts, IntervalLen: gridtest.IntervalLen, PipelineDepth: depth})
					}, failing)
				})
			}
		}
	}
	for _, parts := range []int{1, 2} {
		for _, failing := range []bool{false, true} {
			t.Run(fmt.Sprintf("shipping/partitions=%d/failing=%v", parts, failing), func(t *testing.T) {
				ships := 0
				ship := func(int64, core.OpenInterval) error {
					if ships++; failing && ships == 3 {
						return errors.New("collector unreachable")
					}
					return nil
				}
				check(t, func() (*Engine, error) {
					p, err := shard.New(shard.Config{Shards: parts, Pipeline: testConfig(2)})
					if err != nil {
						return nil, err
					}
					return NewShipping(Config{IntervalLen: gridtest.IntervalLen}, p, ship)
				}, failing)
			})
		}
	}
}
