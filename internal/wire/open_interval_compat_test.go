package wire_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// The parent_open_interval.* fixtures were written by the commit before
// the histogram clones of a feature came to share one value table:
// .frame is openIntervalFrame's output there, .report the rendering of
// the report closeFixtureInterval produced from that frame. They pin
// "no format change" independently of any benchmark: every per-clone
// histogram snapshot a drain emits, and every report an absorb of one
// yields, must stay byte-for-byte what the per-clone-table code produced.
const (
	fixtureFrame  = "parent_open_interval.frame"
	fixtureReport = "parent_open_interval.report"
	// The final trace interval floods, and is the one shipped.
	fixtureIntervals = 8
)

// fixtureTrace is the trace the fixtures were written from.
func fixtureTrace() [][]flow.Record {
	return gridtest.Trace(fixtureIntervals, 2000, fixtureIntervals-1)
}

// openIntervalFrame drains the final interval of the fixture trace from
// a two-shard pipeline (the drain merges the sibling's clone histograms
// into the primary's first) and encodes it in the lean open-interval
// form.
func openIntervalFrame(t *testing.T) []byte {
	t.Helper()
	trace := fixtureTrace()
	sp, err := shard.New(shard.Config{Shards: 2, Pipeline: gridtest.Config()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	sp.ObserveBatch(trace[fixtureIntervals-1])
	frame, err := wire.EncodeOpenIntervalSnapshot(pipelineSnapshotOf(sp.DrainOpenInterval()))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// closeFixtureInterval trains a collector-side pipeline on every trace
// interval but the last, absorbs frame as the last, and closes it.
func closeFixtureInterval(t *testing.T, frame []byte) *core.Report {
	t.Helper()
	trace := fixtureTrace()
	p, err := core.New(gridtest.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, recs := range trace[:fixtureIntervals-1] {
		if _, err := p.ProcessInterval(recs); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := wire.DecodeOpenIntervalSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AbsorbOpenInterval(openIntervalOf(dec)); err != nil {
		t.Fatal(err)
	}
	rep, err := p.EndInterval()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// pipelineSnapshotOf puts a drained open interval into the history-free
// PipelineSnapshot shape EncodeOpenIntervalSnapshot takes.
func pipelineSnapshotOf(oi core.OpenInterval) core.PipelineSnapshot {
	s := core.PipelineSnapshot{Buffer: oi.Buffer}
	for _, clones := range oi.Clones {
		ds := detector.Snapshot{Clones: clones, KLPrev: make([]float64, len(clones))}
		for _, hs := range clones {
			ds.Prev = append(ds.Prev, make([]uint64, len(hs.Counts)))
		}
		s.Bank.Detectors = append(s.Bank.Detectors, ds)
	}
	return s
}

// openIntervalOf is pipelineSnapshotOf's inverse: the decoded
// interval, as AbsorbOpenInterval takes it.
func openIntervalOf(s core.PipelineSnapshot) core.OpenInterval {
	oi := core.OpenInterval{Buffer: s.Buffer}
	for _, ds := range s.Bank.Detectors {
		oi.Clones = append(oi.Clones, ds.Clones)
	}
	return oi
}

// renderReport serializes every deterministic report field, Partial
// included, in the form the open-interval fixtures store reports in.
// The KeepSuspicious forensic slice is excluded: partitioning regroups
// it.
func renderReport(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "interval=%d alarm=%v total=%d suspicious=%d minsup=%d R=%v partial=%v\n",
		rep.Interval, rep.Alarm, rep.TotalFlows, rep.SuspiciousFlows,
		rep.MinSupport, rep.CostReduction, rep.Partial)
	fmt.Fprintf(&b, "detection=%+v\n", rep.Detection)
	if rep.Mining != nil {
		fmt.Fprintf(&b, "mining=%+v\n", *rep.Mining)
	}
	for i := range rep.ItemSets {
		fmt.Fprintf(&b, "set %s sup=%d\n", rep.ItemSets[i].String(), rep.ItemSets[i].Support)
	}
	return b.String()
}

// TestParentOpenIntervalFrame: the drain of a seeded two-shard interval
// encodes to exactly the parent's bytes, and absorbing the parent's
// frame and closing the interval reproduces the parent's report.
func TestParentOpenIntervalFrame(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", fixtureFrame))
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := os.ReadFile(filepath.Join("testdata", fixtureReport))
	if err != nil {
		t.Fatal(err)
	}
	if got := openIntervalFrame(t); !bytes.Equal(got, want) {
		t.Fatalf("open-interval frame is %d bytes and differs from the parent's %d", len(got), len(want))
	}
	dec, err := wire.DecodeOpenIntervalSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if re, err := wire.EncodeOpenIntervalSnapshot(dec); err != nil || !bytes.Equal(re, want) {
		t.Fatalf("parent frame does not re-encode byte-for-byte (err %v)", err)
	}
	rep := closeFixtureInterval(t, want)
	if !rep.Alarm || len(rep.ItemSets) == 0 {
		t.Fatalf("fixture interval did not alarm with item-sets: %s", renderReport(rep))
	}
	if got := renderReport(rep); got != string(wantReport) {
		t.Fatalf("report from the parent's frame differs from the parent's:\n got %s\nwant %s", got, wantReport)
	}
}
