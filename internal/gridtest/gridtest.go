// Package gridtest is the shared harness of the determinism grids. The
// core, engine and wire tests each run one table of configurations —
// partitions, workers, close paths, pipeline depth, batch sizes, agent
// and relay topologies — over the same seeded trace, and hold every
// row's reports with Equal to one Reference: the reports of Oracle, the
// paper's algorithm (§II) written out plainly, which shares no code with
// the system it checks. Only tests import it.
//
// Determinism: Trace is a pure function of its arguments (seeded
// tracegen traffic), Partition places records with a pipeline's seeded
// ShardOf hash, Oracle closes the intervals in sequence on one goroutine
// and sorts everything it reads out of a map, and Equal compares
// interval by interval in order.
package gridtest

import (
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

// IntervalLen is the length of a Trace interval. Trace timestamps fall
// inside aligned windows of this length, so an engine cutting on this
// grid closes exactly the trace's intervals.
const IntervalLen = 15 * time.Minute

// Config is the grid's pipeline configuration: 256 bins, a four-interval
// training window and hash seed 3, the paper's defaults otherwise.
func Config() core.Config {
	return core.Config{Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 3}}
}

// Trace generates intervals of seeded tracegen traffic around baseFlows
// records each, with the ground-truth schedule compressed to the trace.
// In interval floodAt (none when negative) every third record becomes a
// one-packet, 40-byte flow to 42:31337, so detection, prefiltering and
// mining all run.
func Trace(intervals, baseFlows, floodAt int) [][]flow.Record {
	cfg := tracegen.SmallConfig()
	cfg.IntervalLen = IntervalLen
	cfg.Intervals = intervals
	cfg.BaseFlows = baseFlows
	cfg.Events = tracegen.Schedule(cfg.Intervals, cfg.BaseFlows)
	gen := tracegen.New(cfg)
	out := make([][]flow.Record, intervals)
	for i := range out {
		recs := gen.Interval(i)
		if i == floodAt {
			for j := 0; j < len(recs); j += 3 {
				recs[j].DstAddr, recs[j].DstPort = 42, 31337
				recs[j].Packets, recs[j].Bytes = 1, 40
			}
		}
		out[i] = recs
	}
	return out
}

// Partition splits trace into n per-partition traces, placing every
// record where an n-partition pipeline's ShardOf does: a distributed
// run over the parts sees each flow key in the same place as an
// in-process n-partition run. It panics unless n ≥ 1.
func Partition(trace [][]flow.Record, n int) [][][]flow.Record {
	router, err := core.NewPartitioned(Config(), n)
	if err != nil {
		panic(err)
	}
	defer router.Close()
	parts := make([][][]flow.Record, n)
	for id := range parts {
		parts[id] = make([][]flow.Record, len(trace))
	}
	for i, recs := range trace {
		for j := range recs {
			id := router.ShardOf(&recs[j])
			parts[id][i] = append(parts[id][i], recs[j])
		}
	}
	return parts
}

// Reference returns Oracle's reports for trace under cfg. It fails t
// unless some interval is mined, so a grid compared against it covers
// the extraction stage.
func Reference(t testing.TB, cfg core.Config, trace [][]flow.Record) []*core.Report {
	t.Helper()
	reps := Oracle(cfg, trace)
	if !slices.ContainsFunc(reps, func(rep *core.Report) bool { return rep.Mining != nil }) {
		t.Fatal("the reference run never mined an interval; a grid compared against it would not cover extraction")
	}
	return reps
}

// Equal fails t unless got holds want's reports, interval for interval,
// each reflect.DeepEqual to its counterpart, Partial included (nil in
// Reference's reports). Over more than one partition the KeepSuspicious
// slice is compared as a multiset: partitioning regroups it by
// partition (see core.Report).
func Equal(t testing.TB, got, want []*core.Report, partitions int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d reports, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := *got[i], *want[i]
		if partitions > 1 {
			if !sameMultiset(g.Suspicious, w.Suspicious) {
				t.Fatalf("interval %d: suspicious flows differ as a multiset (%d vs %d records)", i, len(g.Suspicious), len(w.Suspicious))
			}
			g.Suspicious, w.Suspicious = nil, nil
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("interval %d: fields %v differ\ngot:  %+v\nwant: %+v", i, differing(g, w), g, w)
		}
	}
}

// sameMultiset reports whether a and b hold the same records with the
// same multiplicities, in any order.
func sameMultiset(a, b []flow.Record) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[flow.Record]int, len(a))
	for _, rec := range a {
		count[rec]++
	}
	for _, rec := range b {
		if count[rec]--; count[rec] < 0 {
			return false
		}
	}
	return true
}

// differing names the report fields on which g and w differ.
func differing(g, w core.Report) []string {
	vg, vw := reflect.ValueOf(g), reflect.ValueOf(w)
	var names []string
	for i := 0; i < vg.NumField(); i++ {
		if !reflect.DeepEqual(vg.Field(i).Interface(), vw.Field(i).Interface()) {
			names = append(names, vg.Type().Field(i).Name)
		}
	}
	return names
}

// NoLeak records the running goroutine count and the process's open
// descriptors and, when t's test ends, polls until both counts are back
// at that baseline, failing t with every goroutine's stack and every
// new descriptor's link target if they are not within five seconds.
// Exiting goroutines may lag the Close that stops them by a scheduler
// tick, so the check retries with bounded sleeps instead of reading
// once. Descriptors are read from /proc/self/fd, and not checked where
// that directory does not exist.
func NoLeak(t testing.TB) {
	// The runtime's poller opens descriptors on first use and keeps
	// them for the process's life: open it before the baseline.
	if r, w, err := os.Pipe(); err == nil {
		r.Close()
		w.Close()
	}
	base, baseFDs := runtime.NumGoroutine(), openFDs()
	t.Cleanup(func() {
		for try := 0; ; try++ {
			fds := openFDs()
			if runtime.NumGoroutine() <= base && len(fds) <= len(baseFDs) {
				return
			}
			if try == 500 {
				var leaked []string
				for fd, target := range fds {
					if baseFDs[fd] != target {
						leaked = append(leaked, fd+" -> "+target)
					}
				}
				slices.Sort(leaked)
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines still running, %d before the test; %d descriptors open, %d before, new: %v\n%s",
					runtime.NumGoroutine(), base, len(fds), len(baseFDs), leaked, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// openFDs maps the process's open descriptors to their link targets;
// it is nil where /proc/self/fd does not exist.
func openFDs() map[string]string {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	fds := make(map[string]string, len(ents))
	for _, e := range ents {
		fds[e.Name()], _ = os.Readlink("/proc/self/fd/" + e.Name())
	}
	return fds
}
