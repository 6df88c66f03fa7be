package core_test

import (
	"fmt"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/mining/eclat"
	"anomalyx/internal/mining/fpgrowth"
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

// closePath runs trace through p, closing every interval one way, and
// returns the reports in interval order.
type closePath struct {
	name string
	run  func(t *testing.T, p *core.Pipeline, cfg core.Config, trace [][]flow.Record) []*core.Report
}

// closePaths are the ways an interval leaves a pipeline: EndInterval;
// BeginClose + Finish, each finish deferred until the next interval has
// been observed and drained (depth 2); EndInterval and an immediate
// BeginClose + Finish in turn, one close lending live state and the next
// swapping it out; and DrainOpenInterval absorbed into a separate
// one-partition pipeline that closes it.
var closePaths = []closePath{
	{"EndInterval", func(t *testing.T, p *core.Pipeline, _ core.Config, trace [][]flow.Record) []*core.Report {
		var reps []*core.Report
		for _, recs := range trace {
			feedChunked(p, recs)
			reps = append(reps, must(t)(p.EndInterval()))
		}
		return reps
	}},
	{"BeginClose+Finish", func(t *testing.T, p *core.Pipeline, _ core.Config, trace [][]flow.Record) []*core.Report {
		var reps []*core.Report
		var pending *core.PendingClose
		for _, recs := range trace {
			feedChunked(p, recs)
			pc, err := p.BeginClose()
			if err != nil {
				t.Fatal(err)
			}
			if pending != nil {
				reps = append(reps, must(t)(pending.Finish()))
			}
			pending = pc
		}
		return append(reps, must(t)(pending.Finish()))
	}},
	{"alternating", func(t *testing.T, p *core.Pipeline, _ core.Config, trace [][]flow.Record) []*core.Report {
		var reps []*core.Report
		for i, recs := range trace {
			feedChunked(p, recs)
			if i%2 == 0 {
				reps = append(reps, must(t)(p.EndInterval()))
				continue
			}
			pc, err := p.BeginClose()
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, must(t)(pc.Finish()))
		}
		return reps
	}},
	{"DrainOpenInterval+AbsorbOpenInterval", func(t *testing.T, p *core.Pipeline, cfg core.Config, trace [][]flow.Record) []*core.Report {
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
			reps = append(reps, must(t)(collector.EndInterval()))
		}
		return reps
	}},
}

// must returns a function that fails t on a close error and otherwise
// passes the report through.
func must(t *testing.T) func(*core.Report, error) *core.Report {
	return func(rep *core.Report, err error) *core.Report {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
}

// TestGrid is the determinism contract of the pipeline in one table:
// every row runs the grid trace through a pipeline of its own
// configuration and must report exactly what gridtest.Reference — one
// partition, one worker, record-by-record EndInterval — reports. The
// rows are
//   - partitions {1, 2, 3, 4} × Workers {1, 2, 4, 8} × every close path;
//   - injected Apriori, FP-Growth and row-form Eclat × partitions
//     {1, 2, 4} × close depth {1, 2}, against the reference's built-in
//     miner (the names keep the union prefilter every row runs);
//   - KeepSuspicious at Workers {0, 1, 2, 4, 8} on one partition (the
//     forensic slice compared record for record, order included) and at
//     partitions {2, 4} (compared as a multiset).
func TestGrid(t *testing.T) {
	// The mined interval holds more records than the prefilter's parallel
	// threshold, so one-partition rows above one worker run the chunked
	// scan.
	trace := gridtest.Trace(10, 2000, 8)
	base := gridtest.Config()
	// The miner, the workers and the partitions do not change what a
	// report says, so one reference serves every row that keeps no
	// suspicious flows.
	ref := gridtest.Reference(t, base, trace)
	keep := base
	keep.KeepSuspicious = true
	kept := gridtest.Reference(t, keep, trace)

	type row struct {
		name       string
		cfg        core.Config
		partitions int
		path       closePath
		want       []*core.Report
	}
	var rows []row
	for _, parts := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, path := range closePaths {
				cfg := base
				cfg.Workers = workers
				rows = append(rows, row{fmt.Sprintf("partitions=%d/workers=%d/%s", parts, workers, path.name), cfg, parts, path, ref})
			}
		}
	}
	for _, m := range []mining.Miner{apriori.New(), fpgrowth.New(), eclat.New()} {
		for _, parts := range []int{1, 2, 4} {
			for depth, path := range closePaths[:2] {
				cfg := base
				cfg.Workers, cfg.Miner = 1, m
				rows = append(rows, row{fmt.Sprintf("miner=%s/prefilter=union/partitions=%d/depth=%d", m.Name(), parts, depth+1), cfg, parts, path, ref})
			}
		}
	}
	for _, workers := range []int{0, 1, 2, 4, 8} {
		cfg := keep
		cfg.Workers = workers
		rows = append(rows, row{fmt.Sprintf("KeepSuspicious/partitions=1/workers=%d", workers), cfg, 1, closePaths[0], kept})
	}
	for _, parts := range []int{2, 4} {
		cfg := keep
		cfg.Workers = 1
		rows = append(rows, row{fmt.Sprintf("KeepSuspicious/partitions=%d/workers=1", parts), cfg, parts, closePaths[0], kept})
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			p, err := core.NewPartitioned(r.cfg, r.partitions)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			gridtest.Equal(t, r.path.run(t, p, r.cfg, trace), r.want, r.partitions)
		})
	}
}
