package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
)

// TestObserveBufferMatchesObserveBatch holds the columnar ingest route
// to the row route it replaced: over seeded traces, at 1, 2 and 3
// partitions, a pipeline fed column chunks of 1, 7 or 512 rows — one
// chunk, refilled for every batch, as the engine's free list does —
// yields reports reflect.DeepEqual to a pipeline of the same partitions
// fed each interval's rows through ObserveBatch, KeepSuspicious's
// buffer-ordered flows included.
func TestObserveBufferMatchesObserveBatch(t *testing.T) {
	cfg := gridtest.Config()
	cfg.KeepSuspicious = true
	traces := [][][]flow.Record{gridtest.Trace(10, 1000, 8), gridtest.Trace(9, 700, 7)}
	for ti, trace := range traces {
		for _, parts := range []int{1, 2, 3} {
			rows := run(t, cfg, parts, trace, func(p *core.Pipeline, recs []flow.Record) { p.ObserveBatch(recs) })
			mined := false
			for _, rep := range rows {
				mined = mined || rep.Mining != nil
			}
			if !mined {
				t.Fatalf("trace %d: no interval was mined; the comparison would not cover extraction", ti)
			}
			for _, batch := range []int{1, 7, 512} {
				t.Run(fmt.Sprintf("trace=%d/partitions=%d/batch=%d", ti, parts, batch), func(t *testing.T) {
					var chunk flow.Buffer
					cols := run(t, cfg, parts, trace, func(p *core.Pipeline, recs []flow.Record) {
						for lo := 0; lo < len(recs); lo += batch {
							chunk.Reset()
							chunk.AppendRecords(recs[lo:min(lo+batch, len(recs))])
							p.ObserveBuffer(&chunk)
						}
					})
					for i := range rows {
						if !reflect.DeepEqual(cols[i], rows[i]) {
							t.Fatalf("interval %d differs:\ncolumns: %+v\nrows:    %+v", i, cols[i], rows[i])
						}
					}
				})
			}
		}
	}
}

// run closes every interval of trace on a pipeline of parts partitions,
// feeding each interval's records with observe.
func run(t *testing.T, cfg core.Config, parts int, trace [][]flow.Record, observe func(*core.Pipeline, []flow.Record)) []*core.Report {
	t.Helper()
	p, err := core.NewPartitioned(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reps := make([]*core.Report, len(trace))
	for i, recs := range trace {
		observe(p, recs)
		if reps[i], err = p.EndInterval(); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}
