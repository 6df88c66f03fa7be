package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
)

// feedChunked observes recs in alternating small and large chunks, so
// both the record-by-record route and the partition + fan-out route of a
// partitioned ObserveBatch contribute to the same interval.
func feedChunked(p *core.Pipeline, recs []flow.Record) {
	for j, small := 0, true; j < len(recs); small = !small {
		n := 700
		if small {
			n = 45
		}
		end := min(j+n, len(recs))
		p.ObserveBatch(recs[j:end])
		j = end
	}
}

// TestPartitionedClosesMatchOnePartition is the partitioning contract in
// one table: for partitions {1, 2, 4} × Workers {1, 2, 4, 8} and each way
// an interval leaves a pipeline — EndInterval; BeginClose + Finish, each
// finish deferred until the next interval has been observed and drained;
// DrainOpenInterval absorbed into a separate one-partition pipeline that
// closes it — every report is deeply equal to a sequential one-partition
// pipeline's over the same trace.
func TestPartitionedClosesMatchOnePartition(t *testing.T) {
	trace := diffTrace(10, 3000, 8)
	base := core.Config{Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 3}, Workers: 1}

	type closer func(t *testing.T, p *core.Pipeline, cfg core.Config) []*core.Report
	paths := []struct {
		name string
		run  closer
	}{
		{"EndInterval", func(t *testing.T, p *core.Pipeline, _ core.Config) []*core.Report {
			var reps []*core.Report
			for _, recs := range trace {
				feedChunked(p, recs)
				rep, err := p.EndInterval()
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, rep)
			}
			return reps
		}},
		{"BeginClose+Finish", func(t *testing.T, p *core.Pipeline, _ core.Config) []*core.Report {
			var reps []*core.Report
			var pending *core.PendingClose
			finish := func() {
				if pending == nil {
					return
				}
				rep, err := pending.Finish()
				if err != nil {
					t.Fatal(err)
				}
				reps, pending = append(reps, rep), nil
			}
			for _, recs := range trace {
				feedChunked(p, recs)
				pc, err := p.BeginClose()
				if err != nil {
					t.Fatal(err)
				}
				finish()
				pending = pc
			}
			finish()
			return reps
		}},
		{"DrainOpenInterval+AbsorbOpenInterval", func(t *testing.T, p *core.Pipeline, cfg core.Config) []*core.Report {
			collector, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer collector.Close()
			var reps []*core.Report
			for _, recs := range trace {
				feedChunked(p, recs)
				if err := collector.AbsorbOpenInterval(p.DrainOpenInterval()); err != nil {
					t.Fatal(err)
				}
				rep, err := collector.EndInterval()
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, rep)
			}
			return reps
		}},
	}

	ref, err := core.New(base)
	if err != nil {
		t.Fatal(err)
	}
	want := paths[0].run(t, ref, base)
	ref.Close()
	alarmed := false
	for _, rep := range want {
		alarmed = alarmed || rep.Mining != nil
	}
	if !alarmed {
		t.Fatal("the one-partition run never extracted; the table would not cover extraction")
	}

	for _, parts := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, path := range paths {
				t.Run(fmt.Sprintf("partitions=%d/workers=%d/%s", parts, workers, path.name), func(t *testing.T) {
					cfg := base
					cfg.Workers = workers
					p, err := core.NewPartitioned(cfg, parts)
					if err != nil {
						t.Fatal(err)
					}
					defer p.Close()
					got := path.run(t, p, cfg)
					if len(got) != len(want) {
						t.Fatalf("%d reports, want %d", len(got), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("interval %d diverged from the one-partition pipeline\ngot:  %+v\nwant: %+v", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}
