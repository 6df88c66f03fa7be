package wire_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/wire"
)

// fixture copies testdata/name into a temporary directory and returns
// the copy's path: a resumed session keeps checkpointing to the path it
// resumed from, so each case works on a copy.
func fixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckpointConfigMismatchRefused: a checkpoint records the digest
// of the detection configuration it was written under, and a session
// resuming from it under any other — another hash seed, threshold
// multiplier, training length or history window, each of which would
// compare restored history against differently binned or differently
// judged intervals — fails to build instead of restoring silently. Both
// roles check: the root collector and the relay.
func TestCheckpointConfigMismatchRefused(t *testing.T) {
	base := detector.Config{Bins: 32, TrainIntervals: 2, Seed: 3} // the fixtures' configuration
	for name, mut := range map[string]func(*detector.Config){
		"seed":           func(d *detector.Config) { d.Seed = 4 },
		"alpha":          func(d *detector.Config) { d.Alpha = 2.5 },
		"train":          func(d *detector.Config) { d.TrainIntervals = 3 },
		"history window": func(d *detector.Config) { d.HistoryWindow = 96 },
	} {
		d := base
		mut(&d)
		cfg := core.Config{Detector: d}
		_, err := wire.NewCollector(cfg, wire.CollectorConfig{
			Agents: 2, CheckpointPath: fixture(t, "v3_collector.ckpt"), Resume: true,
		})
		if err == nil || !strings.Contains(err.Error(), "config digest") {
			t.Errorf("%s: collector resumed with err %v, want a config digest refusal", name, err)
		}
		_, err = wire.NewRelay(cfg, wire.RelayConfig{
			Collector: wire.CollectorConfig{Agents: 2, CheckpointPath: fixture(t, "v3_relay.ckpt"), Resume: true},
			Parent:    "127.0.0.1:1",
		})
		if err == nil || !strings.Contains(err.Error(), "config digest") {
			t.Errorf("%s: relay resumed with err %v, want a config digest refusal", name, err)
		}
	}
	// The matching configuration resumes.
	coll, err := wire.NewCollector(core.Config{Detector: base}, wire.CollectorConfig{
		Agents: 2, CheckpointPath: fixture(t, "v3_collector.ckpt"), Resume: true,
	})
	if err != nil {
		t.Fatalf("matching configuration refused: %v", err)
	}
	coll.Close()
}

// TestV2CheckpointsRefusedAtStartup: a collector or relay pointed at a
// version-2 file (a full pipeline snapshot, the previous format) fails
// to build with the version error.
func TestV2CheckpointsRefusedAtStartup(t *testing.T) {
	cfg := core.Config{Detector: detector.Config{Bins: 32, TrainIntervals: 2, Seed: 3}}
	const want = "unsupported checkpoint version 2 (want 3)"
	if _, err := wire.NewCollector(cfg, wire.CollectorConfig{
		Agents: 2, CheckpointPath: fixture(t, "v2_collector.ckpt"), Resume: true,
	}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("collector: %v, want %q", err, want)
	}
	if _, err := wire.NewRelay(cfg, wire.RelayConfig{
		Collector: wire.CollectorConfig{Agents: 2, CheckpointPath: fixture(t, "v2_relay.ckpt"), Resume: true},
		Parent:    "127.0.0.1:1",
	}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("relay: %v, want %q", err, want)
	}
}
