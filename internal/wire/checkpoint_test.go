package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

// TestParentCheckpointsReencode holds the checkpoint codec to the
// version-3 file bytes recorded in testdata (a two-agent collector after
// three closes; a two-child relay holding two unacked upstream frames,
// both under the configuration TestResumeFromParentCheckpoints runs):
// decode → encode must reproduce each byte for byte. The root file's
// tail is detection history alone, and both carry the configuration's
// digest. The magics still tell the roles apart: each file is refused
// by the other role's reader.
func TestParentCheckpointsReencode(t *testing.T) {
	digest := configDigest(core.Config{Detector: detector.Config{Bins: 32, TrainIntervals: 2, Seed: 3}})
	for _, tc := range []struct {
		file  string
		relay bool
		held  int
	}{
		{"v3_collector.ckpt", false, 0},
		{"v3_relay.ckpt", true, 2},
	} {
		b, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := decodeCheckpoint(b, tc.relay)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if len(c.absorbed) != 2 || len(c.held) != tc.held {
			t.Errorf("%s: decoded %d agents and %d held frames, want 2 and %d",
				tc.file, len(c.absorbed), len(c.held), tc.held)
		}
		if c.digest != digest {
			t.Errorf("%s: digest %x, want %x", tc.file, c.digest, digest)
		}
		if !tc.relay && (len(c.hist.Detectors) != 5 || c.hist.Detectors[0].Interval != 3) {
			t.Errorf("%s: history of %d detectors, want the default 5 after 3 closes", tc.file, len(c.hist.Detectors))
		}
		if re := appendCheckpoint(nil, c); !bytes.Equal(re, b) {
			t.Errorf("%s: re-encoding changed the file bytes (%d -> %d bytes)", tc.file, len(b), len(re))
		}
		if _, err := decodeCheckpoint(b, !tc.relay); err == nil {
			t.Errorf("%s: accepted as the other role's checkpoint", tc.file)
		}
	}
}

// TestV2CheckpointsRefused: the version-2 files the previous format
// wrote (testdata/v2_*.ckpt, whose root tail was a full pipeline
// snapshot) are refused by their own role's reader with the version
// error, not misparsed as history.
func TestV2CheckpointsRefused(t *testing.T) {
	for _, tc := range []struct {
		file  string
		relay bool
	}{
		{"v2_collector.ckpt", false},
		{"v2_relay.ckpt", true},
	} {
		b, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		_, err = decodeCheckpoint(b, tc.relay)
		if err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version 2 (want 3)") {
			t.Errorf("%s: got %v, want the version error", tc.file, err)
		}
	}
}

// checkpointTrace generates a seeded tracegen trace whose interval
// floodAt (none when out of range) carries an injected dstPort flood, so
// detection, prefiltering and mining are all exercised.
func checkpointTrace(intervals, baseFlows, floodAt int) [][]flow.Record {
	gcfg := tracegen.SmallConfig()
	gcfg.Intervals, gcfg.BaseFlows = intervals, baseFlows
	gcfg.Events = tracegen.Schedule(gcfg.Intervals, gcfg.BaseFlows)
	gen := tracegen.New(gcfg)
	out := make([][]flow.Record, intervals)
	for i := range out {
		out[i] = gen.Interval(i)
		if i == floodAt {
			for j := range out[i] {
				if j%3 == 0 {
					out[i][j].DstAddr, out[i][j].DstPort = 42, 31337
					out[i][j].Packets, out[i][j].Bytes = 1, 40
				}
			}
		}
	}
	return out
}

// checkpointConfig is the detection configuration of the round-trip
// tests below.
var checkpointConfig = core.Config{Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 3}}

// TestBankSnapshotRoundTrip pins the history codec's lossless-checkpoint
// guarantee at the bank level: snapshot a bank with real detection
// history, push it through encode/decode, restore into a fresh bank that
// holds the same partially accumulated interval, and both banks must
// produce byte-identical results for every subsequent interval. The
// decoded history must also be deeply equal to the original and
// re-encode to identical bytes (the canonical-form property).
func TestBankSnapshotRoundTrip(t *testing.T) {
	trace := checkpointTrace(8, 2000, 6)
	bcfg := detector.BankConfig{Template: checkpointConfig.Detector, Workers: 1}

	orig, err := detector.NewBank(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for i := 0; i < 5; i++ {
		orig.ObserveBatch(trace[i])
		orig.EndInterval()
	}
	orig.ObserveBatch(trace[5][:900])

	snap := orig.Snapshot()
	enc := appendHistory(nil, snap)
	r := &reader{buf: enc}
	dec := decodeHistory(r)
	if r.expectEOF(); r.err() != nil {
		t.Fatalf("decode: %v", r.err())
	}
	if !reflect.DeepEqual(dec, snap) {
		t.Fatal("decoded bank history differs from the original")
	}
	if enc2 := appendHistory(nil, dec); !bytes.Equal(enc, enc2) {
		t.Fatal("re-encoding the decoded history changed the bytes")
	}

	restored, err := detector.NewBank(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	restored.ObserveBatch(trace[5][:900])
	if err := restored.RestoreSnapshot(dec); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Subsequent reports must be byte-identical, interval for interval.
	for i := 5; i < len(trace); i++ {
		rest := trace[i]
		if i == 5 {
			rest = trace[i][900:] // the first 900 are already in both banks
		}
		orig.ObserveBatch(rest)
		restored.ObserveBatch(rest)
		want := fmt.Sprintf("%+v", orig.EndInterval())
		got := fmt.Sprintf("%+v", restored.EndInterval())
		if got != want {
			t.Fatalf("interval %d diverged after restore:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestPipelineSnapshotRoundTrip is the pipeline-level version, through a
// whole root checkpoint written at an interval boundary, as the
// collector writes it: the decoded checkpoint equals the original and
// re-encodes byte-identically, and a pipeline restored from it matches
// the original's reports, extraction (prefilter + mining) included.
func TestPipelineSnapshotRoundTrip(t *testing.T) {
	trace := checkpointTrace(10, 2000, 8)
	orig, err := core.New(checkpointConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for i := 0; i < 7; i++ {
		if _, err := orig.ProcessInterval(trace[i]); err != nil {
			t.Fatal(err)
		}
	}

	c := checkpoint{
		digest:     configDigest(checkpointConfig),
		lastClosed: 7 * 900000,
		emitted:    7,
		absorbed:   []int64{7 * 900000, 6 * 900000},
		statuses:   []agentStatus{statusLive, statusDown},
		hist:       orig.Snapshot(),
	}
	enc := appendCheckpoint(nil, c)
	dec, err := decodeCheckpoint(enc, false)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dec, c) {
		t.Fatal("decoded checkpoint differs from the original")
	}
	if enc2 := appendCheckpoint(nil, dec); !bytes.Equal(enc, enc2) {
		t.Fatal("re-encoding the decoded checkpoint changed the bytes")
	}

	restored, err := core.New(checkpointConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreSnapshot(dec.hist); err != nil {
		t.Fatalf("restore: %v", err)
	}
	alarmed := false
	for i := 7; i < len(trace); i++ {
		want, err := orig.ProcessInterval(trace[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.ProcessInterval(trace[i])
		if err != nil {
			t.Fatal(err)
		}
		alarmed = alarmed || want.Alarm
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d diverged after restore:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if !alarmed {
		t.Fatal("post-restore intervals never alarmed; extraction path was not compared")
	}
}

// TestConfigDigest pins the digest the handshake and the checkpoint
// header carry: implicit defaults and their explicit spellings digest
// identically, while any change to the histogram space (seed, bins,
// features) or to the alarm rule digests differently.
func TestConfigDigest(t *testing.T) {
	implicit := core.Config{}
	explicit := core.Config{
		Features: flow.DetectorFeatures[:],
		Detector: detector.Config{}.WithDefaults(),
	}
	if configDigest(implicit) != configDigest(explicit) {
		t.Error("defaulted and explicit configurations digest differently")
	}
	base := checkpointConfig
	variants := []core.Config{
		{Detector: detector.Config{Bins: 512, TrainIntervals: 4, Seed: 3}},
		{Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 4}},
		{Detector: detector.Config{Bins: 256, TrainIntervals: 5, Seed: 3}},
		{Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 3, Alpha: 2.5}},
		{Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 3, HistoryWindow: 96}},
		{Features: []flow.FeatureKind{flow.SrcIP}, Detector: base.Detector},
	}
	for i, v := range variants {
		if configDigest(v) == configDigest(base) {
			t.Errorf("variant %d digests equal to base", i)
		}
	}
}

// TestConfigDigestStable pins configDigest's values, recorded before
// the detector's metric field was removed: the slot it filled hashes a
// constant zero, so handshakes with older peers and the version-3
// checkpoints in testdata still match.
func TestConfigDigestStable(t *testing.T) {
	for _, tc := range []struct {
		cfg  core.Config
		want string
	}{
		{core.Config{}, "705308322aa944c8"},
		{core.Config{Detector: detector.Config{Bins: 256}}, "79cdf915e8fee5c6"},
		{core.Config{Detector: detector.Config{Seed: 42}}, "70ab64322af456f2"},
	} {
		if got := fmt.Sprintf("%016x", configDigest(tc.cfg)); got != tc.want {
			t.Errorf("configDigest(%+v) = %s, want %s", tc.cfg.Detector, got, tc.want)
		}
	}
}

// historyCheckpoint runs a paper-default pipeline (5 features x 3
// clones x 1024 bins) over intervals generated intervals of about
// nFlows records each and returns a one-agent root checkpoint of its
// detection history.
func historyCheckpoint(tb testing.TB, intervals, nFlows int) checkpoint {
	tb.Helper()
	p, err := core.New(core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	defer p.Close()
	for _, recs := range checkpointTrace(intervals, nFlows, -1) {
		p.ObserveBatch(recs)
		if _, err := p.EndInterval(); err != nil {
			tb.Fatal(err)
		}
	}
	return checkpoint{
		digest:     configDigest(core.Config{}),
		lastClosed: int64(intervals) * 900000,
		emitted:    int64(intervals),
		absorbed:   []int64{int64(intervals) * 900000},
		statuses:   []agentStatus{statusLive},
		hist:       p.Snapshot(),
	}
}

// BenchmarkWireSnapshot measures the history codec — the root
// checkpoint a collector writes after every close — on a paper-default
// pipeline whose first-difference windows are full (200 intervals at
// the default 192-interval window): encode, decode, and the bytes
// produced (reported as B/op via SetBytes, so ns/op divided by MB/s is
// directly comparable).
func BenchmarkWireSnapshot(b *testing.B) {
	c := historyCheckpoint(b, 200, 400)
	enc := appendCheckpoint(nil, c)
	b.Logf("checkpoint size: %d bytes (%d detectors)", len(enc), len(c.hist.Detectors))
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc = appendCheckpoint(enc[:0], c)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeCheckpoint(enc, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
