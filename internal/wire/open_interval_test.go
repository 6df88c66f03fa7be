package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/wire"
)

// TestOpenIntervalRoundTrip pins the lean codec's contract: the
// encoding of a drained interval is smaller than the full form, decodes
// deeply equal to the drained snapshot (canonical empty history
// reconstructed), re-encodes byte-identically, and restores into a
// pipeline that re-snapshots to the same full-codec bytes as one
// restored from the full encoding.
func TestOpenIntervalRoundTrip(t *testing.T) {
	p, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ObserveBatch(testTrace(1, 3000, 0)[0])
	snap := p.Snapshot()

	lean, err := wire.EncodeOpenIntervalSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	full := wire.EncodePipelineSnapshot(snap)
	if len(lean) >= len(full) {
		t.Fatalf("lean frame (%d bytes) not smaller than full (%d bytes)", len(lean), len(full))
	}
	t.Logf("lean %d bytes vs full %d bytes (%.1f%% saved)",
		len(lean), len(full), 100*float64(len(full)-len(lean))/float64(len(full)))

	dec, err := wire.DecodeOpenIntervalSnapshot(lean)
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
	if !bytes.Equal(re, lean) {
		t.Fatal("re-encoding the decoded snapshot changed the bytes")
	}

	restored, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreSnapshot(dec); err != nil {
		t.Fatal(err)
	}
	if got := wire.EncodePipelineSnapshot(restored.Snapshot()); !bytes.Equal(got, full) {
		t.Fatal("pipeline restored from the lean form re-snapshots differently from the full form")
	}
}

// TestOpenIntervalRejectsHistory: the lean form refuses snapshots that
// carry detection history (it would silently discard them), and refuses
// corrupt payloads.
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
	if _, err := wire.EncodeOpenIntervalSnapshot(p.Snapshot()); err == nil {
		t.Fatal("open-interval encoding accepted a snapshot with detection history")
	}

	if _, err := wire.DecodeOpenIntervalSnapshot(nil); err == nil {
		t.Fatal("decoder accepted empty input")
	}
	fresh, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	lean, err := wire.EncodeOpenIntervalSnapshot(fresh.Snapshot())
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
