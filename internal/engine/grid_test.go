package engine

import (
	"fmt"
	"slices"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
)

// TestGrid is the determinism contract of the engine in one table: the
// grid trace, submitted as one timestamped stream in batches of a row's
// size, must come out of an engine of the row's shards, Workers and
// PipelineDepth as exactly the reports of gridtest.Reference, in
// interval order, with no goroutine left behind. Every batch size
// straddles interval boundaries, and runEngine checks the
// intervals-closed counts. The rows are
//   - shards {1, 2, 4} × Workers {1, 2, 4, 8} × depth {1, 3};
//   - depth {2, 4, 8} at two shards and two workers;
//   - batches of 1, 7 and 512 records and the whole stream at the
//     default shards and workers, inline and at depth 3;
//   - batches of 900 at shards {1, 4}.
func TestGrid(t *testing.T) {
	trace := gridtest.Trace(10, 1500, 8)
	stream := slices.Concat(trace...)
	want := gridtest.Reference(t, gridtest.Config(), trace)

	type row struct{ shards, workers, depth, batch int }
	var rows []row
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, depth := range []int{1, 3} {
				rows = append(rows, row{shards, workers, depth, len(stream)})
			}
		}
	}
	for _, depth := range []int{2, 4, 8} {
		rows = append(rows, row{2, 2, depth, len(stream)})
	}
	for _, depth := range []int{1, 3} {
		for _, batch := range []int{1, 7, 512, len(stream)} {
			rows = append(rows, row{0, 0, depth, batch})
		}
	}
	for _, shards := range []int{1, 4} {
		rows = append(rows, row{shards, 1, 1, 900})
	}

	for _, r := range rows {
		batch := fmt.Sprint(r.batch)
		if r.batch == len(stream) {
			batch = "all"
		}
		t.Run(fmt.Sprintf("shards=%d/workers=%d/depth=%d/batch=%s", r.shards, r.workers, r.depth, batch), func(t *testing.T) {
			gridtest.NoLeak(t)
			pcfg := gridtest.Config()
			pcfg.Workers = r.workers
			cfg := Config{Pipeline: pcfg, Shards: r.shards, IntervalLen: gridtest.IntervalLen, PipelineDepth: r.depth}
			gridtest.Equal(t, runEngine(t, cfg, batched(stream, r.batch)), want, max(r.shards, 1))
		})
	}
}

// batched cuts recs into batches of n records, the last one shorter.
func batched(recs []flow.Record, n int) [][]flow.Record {
	var out [][]flow.Record
	for i := 0; i < len(recs); i += n {
		out = append(out, recs[i:min(i+n, len(recs))])
	}
	return out
}

// runEngine submits batches in order to one engine built from cfg and
// returns the emitted reports in order. It fails t unless the
// intervals-closed counts SubmitBatch returns sum to one less than the
// reports: every report but Close's flush is a cut.
func runEngine(t *testing.T, cfg Config, batches [][]flow.Record) []*core.Report {
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
	closed := 0
	for _, b := range batches {
		n, err := eng.SubmitBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		closed += n
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if closed != len(reports)-1 {
		t.Fatalf("SubmitBatch counted %d closed intervals, want %d", closed, len(reports)-1)
	}
	return reports
}
