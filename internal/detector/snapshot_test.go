package detector

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
	"anomalyx/internal/tracegen"
)

// snapTestRecords deterministically synthesizes one interval's records:
// a stable popular set plus an optional dstPort flood.
func snapTestRecords(interval, n int, flood bool) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr: uint32(i%97) + 1,
			DstAddr: uint32(i%61) + 1,
			SrcPort: uint16(i % 53),
			DstPort: uint16(i % 23),
			Packets: uint32(i%7) + 1,
			Start:   int64(interval) * 1000,
		}
		if flood && i%2 == 0 {
			recs[i].DstAddr, recs[i].DstPort = 42, 31337
			recs[i].Packets = 1
		}
	}
	return recs
}

func snapTestBankConfig() BankConfig {
	return BankConfig{
		Template: Config{Bins: 64, TrainIntervals: 3, Seed: 5},
		Workers:  1,
	}
}

// TestDetectorSnapshotRoundTrip: restoring a mid-stream snapshot into a
// fresh same-config detector reproduces its subsequent results exactly,
// including thresholds and alarms (the history — prev counts, KL series,
// diff samples — must survive the trip). The snapshot carries no open
// interval, and the restore keeps the one the restored detector already
// holds: here it observed the same partial interval before the restore.
func TestDetectorSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Feature: flow.DstPort, Bins: 64, TrainIntervals: 3, Seed: 5}
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		orig.ObserveBatch(snapTestRecords(i, 800, false))
		orig.EndInterval()
	}
	partial := snapTestRecords(6, 300, false)
	orig.ObserveBatch(partial)

	s := orig.Snapshot()
	if s.Clones != nil || s.Interval != 6 || !s.HaveKL {
		t.Fatalf("snapshot: %d clone histograms, interval %d, HaveKL %v; want none, 6, true",
			len(s.Clones), s.Interval, s.HaveKL)
	}
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored.ObserveBatch(partial)
	if err := restored.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), s) {
		t.Fatal("restored detector re-snapshots differently")
	}
	for i := 6; i < 10; i++ {
		rest := snapTestRecords(i, 800, i == 7)
		if i == 6 {
			rest = rest[300:]
		}
		orig.ObserveBatch(rest)
		restored.ObserveBatch(rest)
		want := fmt.Sprintf("%+v", orig.EndInterval())
		got := fmt.Sprintf("%+v", restored.EndInterval())
		if got != want {
			t.Fatalf("interval %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestDetectorSnapshotRejectsShape: clone/bin mismatches error.
func TestDetectorSnapshotRejectsShape(t *testing.T) {
	d, err := New(Config{Feature: flow.DstPort, Bins: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveBatch(snapTestRecords(0, 100, false))
	s := d.Snapshot()

	other, err := New(Config{Feature: flow.DstPort, Bins: 64, Clones: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreSnapshot(s); err == nil {
		t.Error("restore across clone counts accepted")
	}
	narrow, err := New(Config{Feature: flow.DstPort, Bins: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.RestoreSnapshot(s); err == nil {
		t.Error("restore across bin counts accepted")
	}
	bad := s
	bad.Prev = [][]uint64{{1, 2}, {3}, {4}}
	if err := d.RestoreSnapshot(bad); err == nil {
		t.Error("restore with malformed reference counts accepted")
	}
	// A snapshot is history only: one carrying clone histograms — the
	// open-interval codec's argument shape — is refused, even empty ones.
	withClones := s
	withClones.Clones = []histogram.Snapshot{}
	if err := d.RestoreSnapshot(withClones); err == nil {
		t.Error("restore of a snapshot carrying clone histograms accepted")
	}
}

// TestDrainIntervalKeepsHistory: DrainIntervalInto clears only the open
// interval — the detection history (and therefore subsequent
// thresholds) is untouched, while the drained observations are gone.
func TestDrainIntervalKeepsHistory(t *testing.T) {
	cfg := BankConfig{Features: []flow.FeatureKind{flow.DstPort}, Template: snapTestBankConfig().Template, Workers: 1}
	a, err := NewBank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewBank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 5; i++ {
		recs := snapTestRecords(i, 600, false)
		a.ObserveBatch(recs)
		b.ObserveBatch(recs)
		a.EndInterval()
		b.EndInterval()
	}
	// b additionally accumulates garbage that the drain must wipe.
	b.ObserveBatch(snapTestRecords(99, 400, true))
	b.DrainIntervalInto(nil, make([]histogram.SnapshotMemory, 1))
	recs := snapTestRecords(5, 600, false)
	a.ObserveBatch(recs)
	b.ObserveBatch(recs)
	want := fmt.Sprintf("%+v", a.EndInterval())
	got := fmt.Sprintf("%+v", b.EndInterval())
	if got != want {
		t.Fatalf("DrainInterval leaked state:\n got %s\nwant %s", got, want)
	}
}

// TestBankSnapshotRoundTrip: the bank-level wrappers snapshot and
// restore every detector in feature order; shape mismatches error.
func TestBankSnapshotRoundTrip(t *testing.T) {
	orig, err := NewBank(snapTestBankConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for i := 0; i < 5; i++ {
		orig.ObserveBatch(snapTestRecords(i, 700, false))
		orig.EndInterval()
	}
	partial := snapTestRecords(5, 250, false)
	orig.ObserveBatch(partial)

	s := orig.Snapshot()
	if len(s.Detectors) != len(orig.Detectors()) {
		t.Fatalf("snapshot has %d detectors, bank %d", len(s.Detectors), len(orig.Detectors()))
	}
	restored, err := NewBank(snapTestBankConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	restored.ObserveBatch(partial)
	if err := restored.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 9; i++ {
		rest := snapTestRecords(i, 700, i == 6)
		if i == 5 {
			rest = rest[250:]
		}
		orig.ObserveBatch(rest)
		restored.ObserveBatch(rest)
		want := fmt.Sprintf("%+v", orig.EndInterval())
		got := fmt.Sprintf("%+v", restored.EndInterval())
		if got != want {
			t.Fatalf("interval %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}

	small, err := NewBank(BankConfig{
		Features: []flow.FeatureKind{flow.SrcIP},
		Template: snapTestBankConfig().Template,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if err := small.RestoreSnapshot(s); err == nil {
		t.Error("restore across feature counts accepted")
	}
	// One bad detector anywhere rejects the whole snapshot before any
	// history moves.
	before := restored.Snapshot()
	bad := BankSnapshot{Detectors: append([]Snapshot(nil), before.Detectors...)}
	bad.Detectors[0].HavePrev = !bad.Detectors[0].HavePrev
	bad.Detectors[len(bad.Detectors)-1].Prev = nil
	if err := restored.RestoreSnapshot(bad); err == nil {
		t.Error("restore with a malformed last detector accepted")
	}
	if !reflect.DeepEqual(restored.Snapshot(), before) {
		t.Error("rejected restore moved history")
	}

	// Bank-level DrainIntervalInto wipes the open interval of every
	// detector (history stays — see TestDrainIntervalKeepsHistory).
	restored.ObserveBatch(snapTestRecords(50, 300, true))
	restored.DrainIntervalInto(nil, make([]histogram.SnapshotMemory, len(restored.Detectors())))
	for di, set := range restored.LiveInterval() {
		if n := set.Total(); n != 0 {
			t.Fatalf("detector %d still holds %d observations after the drain", di, n)
		}
	}
}

// TestRestoredThresholdsBitIdentical: the sorted copy of the
// first-difference window is not in the snapshot; RestoreSnapshot
// rebuilds it. A detector restored from a snapshot taken before its
// window filled, and one restored from a snapshot taken after, must
// each produce the original's thresholds, bit for bit, over the next 50
// intervals of traffic with scheduled anomalies.
func TestRestoredThresholdsBitIdentical(t *testing.T) {
	gcfg := tracegen.DefaultConfig()
	gcfg.Intervals, gcfg.BaseFlows = 90, 1500
	gcfg.Events = tracegen.Schedule(gcfg.Intervals, gcfg.BaseFlows)
	gen := tracegen.New(gcfg)
	ivs := make([][]flow.Record, gcfg.Intervals)
	for i := range ivs {
		ivs[i] = gen.Interval(i)
	}
	cfg := Config{Feature: flow.DstPort, TrainIntervals: 4, HistoryWindow: 16, Seed: 3}
	for _, at := range []int{8, 30} { // the window holds 16 intervals' samples from interval 18 on
		orig, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < at; i++ {
			orig.ObserveBatch(ivs[i])
			orig.EndInterval()
		}
		half := len(ivs[at]) / 2
		orig.ObserveBatch(ivs[at][:half])
		restored, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		restored.ObserveBatch(ivs[at][:half])
		if err := restored.RestoreSnapshot(orig.Snapshot()); err != nil {
			t.Fatal(err)
		}
		alarms := 0
		for i := at; i < at+50; i++ {
			recs := ivs[i]
			if i == at {
				recs = recs[half:]
			}
			orig.ObserveBatch(recs)
			restored.ObserveBatch(recs)
			want, got := orig.EndInterval(), restored.EndInterval()
			if math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) {
				t.Fatalf("snapshot at %d, interval %d: threshold %v, original %v", at, i, got.Threshold, want.Threshold)
			}
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
				t.Fatalf("snapshot at %d, interval %d diverged:\n got %s\nwant %s", at, i, g, w)
			}
			if want.Alarm {
				alarms++
			}
		}
		if alarms == 0 {
			t.Errorf("snapshot at %d: no alarm in 50 intervals; the comparison never reached identification", at)
		}
	}
}
