package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/wire"
)

// TestOpenIntervalRoundTrip pins the exported open-interval codec's
// contract: the encoding of a drained interval decodes deeply equal to
// the drained interval in PipelineSnapshot form (canonical empty history
// reconstructed), re-encodes byte-identically, and absorbs into a fresh
// pipeline that drains to the same bytes again.
func TestOpenIntervalRoundTrip(t *testing.T) {
	p, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ObserveBatch(testTrace(1, 3000, 0)[0])
	snap := pipelineSnapshotOf(p.DrainOpenInterval())

	frame, err := wire.EncodeOpenIntervalSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := wire.DecodeOpenIntervalSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, snap) {
		t.Fatal("decoded open-interval snapshot differs from the original")
	}
	re, err := wire.EncodeOpenIntervalSnapshot(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, frame) {
		t.Fatal("re-encoding the decoded snapshot changed the bytes")
	}

	absorbed, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer absorbed.Close()
	if err := absorbed.AbsorbOpenInterval(openIntervalOf(dec)); err != nil {
		t.Fatal(err)
	}
	got, err := wire.EncodeOpenIntervalSnapshot(pipelineSnapshotOf(absorbed.DrainOpenInterval()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("pipeline that absorbed the decoded interval drains to different bytes")
	}
}

// TestOpenIntervalRejectsHistory: the open-interval form refuses
// snapshots that carry detection history (it would silently discard
// them), and refuses corrupt payloads.
func TestOpenIntervalRejectsHistory(t *testing.T) {
	p, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ObserveBatch(testTrace(1, 200, 0)[0])
	if _, err := p.EndInterval(); err != nil {
		t.Fatal(err)
	}
	p.ObserveBatch(testTrace(1, 200, 0)[0])
	hist := p.Snapshot().Detectors[0]
	for name, carry := range map[string]func(ds *detector.Snapshot){
		"flags":     func(ds *detector.Snapshot) { ds.HavePrev = hist.HavePrev },
		"interval":  func(ds *detector.Snapshot) { ds.Interval = hist.Interval },
		"reference": func(ds *detector.Snapshot) { ds.Prev = hist.Prev },
	} {
		withHistory := pipelineSnapshotOf(p.DrainOpenInterval())
		carry(&withHistory.Bank.Detectors[0])
		if _, err := wire.EncodeOpenIntervalSnapshot(withHistory); err == nil {
			t.Errorf("%s: open-interval encoding accepted a snapshot with detection history", name)
		}
	}

	if _, err := wire.DecodeOpenIntervalSnapshot(nil); err == nil {
		t.Fatal("decoder accepted empty input")
	}
	fresh, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	lean, err := wire.EncodeOpenIntervalSnapshot(pipelineSnapshotOf(fresh.DrainOpenInterval()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeOpenIntervalSnapshot(lean[:len(lean)-1]); err == nil {
		t.Fatal("decoder accepted truncated input")
	}
	if _, err := wire.DecodeOpenIntervalSnapshot(append(append([]byte(nil), lean...), 7)); err == nil {
		t.Fatal("decoder accepted trailing bytes")
	}
}
