package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/shard"
)

// runEngine streams recs through one engine built from cfg and returns
// the emitted reports in order.
func runEngine(t *testing.T, cfg Config, recs []flow.Record) []*core.Report {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*core.Report
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			reports = append(reports, rep)
		}
	}()
	if _, err := eng.SubmitBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	return reports
}

// diffReports fails the test on the first divergence between two report
// sequences.
func diffReports(t *testing.T, got, want []*core.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("pipelined engine emitted %d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("interval %d: pipelined report diverged\ngot:  %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}

// TestPipelinedMatchesSyncGrid pins the tentpole determinism bar: with
// PipelineDepth > 1 the asynchronous close worker must emit reports
// byte-identical to the synchronous inline close, across the full
// Workers × shards grid (run under -race).
func TestPipelinedMatchesSyncGrid(t *testing.T) {
	stream := makeStream(11, 8, 1200, 7)
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				cfg := Config{Pipeline: testConfig(workers), Shards: shards, IntervalLen: intervalLen}
				want := runEngine(t, cfg, stream)
				cfg.PipelineDepth = 3
				got := runEngine(t, cfg, stream)
				diffReports(t, got, want)
				alarmed := false
				for _, rep := range want {
					if rep.Alarm {
						alarmed = true
					}
				}
				if !alarmed {
					t.Error("no alarm in the stream; extraction path not compared")
				}
			})
		}
	}
}

// TestPipelinedDepthSweep varies the close-queue depth on one grid cell:
// any depth must reproduce the synchronous reports exactly, in order.
func TestPipelinedDepthSweep(t *testing.T) {
	stream := makeStream(12, 8, 900, 7)
	base := Config{Pipeline: testConfig(2), Shards: 2, IntervalLen: intervalLen}
	want := runEngine(t, base, stream)
	for _, depth := range []int{2, 4, 8} {
		cfg := base
		cfg.PipelineDepth = depth
		diffReports(t, runEngine(t, cfg, stream), want)
	}
}

// TestPipelinedGapsAndClockJump drives the counted-cut paths through the
// close worker: multi-interval gaps (one cut message closing several
// empty intervals) and a clock jump past maxGapIntervals (close once,
// re-seed the grid) must both match the synchronous close.
func TestPipelinedGapsAndClockJump(t *testing.T) {
	stream := makeStream(13, 3, 600, -1)
	step := intervalLen.Milliseconds()
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

	cfg := Config{Pipeline: testConfig(1), IntervalLen: intervalLen}
	want := runEngine(t, cfg, stream)
	cfg.PipelineDepth = 4
	diffReports(t, runEngine(t, cfg, stream), want)
}

// TestPipelinedErrorSurfacesOnLiveStream mirrors the synchronous error
// contract for the close worker: a Finish failure must settle Err, close
// Reports early, and never wedge producers that keep submitting.
func TestPipelinedErrorSurfacesOnLiveStream(t *testing.T) {
	cfg := testConfig(2)
	cfg.Miner = errMiner{}
	eng, err := New(Config{Pipeline: cfg, IntervalLen: intervalLen, Buffer: 64, PipelineDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	errAtClose := make(chan error, 1)
	go func() {
		for range eng.Reports() {
		}
		errAtClose <- eng.Err()
	}()
	for _, rec := range makeStream(2, 8, 3000, 6) {
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
// The count is polled with a deadline: exiting goroutines may lag Close
// by a scheduler tick.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	stream := makeStream(14, 8, 1200, 7)
	check := func(t *testing.T, newEngine func() (*Engine, error), failing bool) {
		t.Helper()
		base := runtime.NumGoroutine()
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
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Close, %d before New:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
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
						return New(Config{Pipeline: cfg, Shards: parts, IntervalLen: intervalLen, PipelineDepth: depth})
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
					return NewShipping(Config{IntervalLen: intervalLen}, p, ship)
				}, failing)
			})
		}
	}
}
