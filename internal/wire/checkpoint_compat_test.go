package wire_test

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// TestResumeFromParentCheckpoints resumes sessions from the recorded
// version-3 checkpoint files (see TestParentCheckpointsReencode) and
// requires the report stream to continue byte-identically to an
// undisturbed two-shard run of the same trace: the collector file was
// taken after three closed intervals, the relay file while it held its
// first two merged frames unacked. The alarm interval falls after both
// cuts, so the restored state is what decides it.
func TestResumeFromParentCheckpoints(t *testing.T) {
	// The trace and configuration the files were generated under.
	trace := gridtest.Trace(6, 120, 4)
	cfg := core.Config{Detector: detector.Config{Bins: 32, TrainIntervals: 2, Seed: 3}}
	parts := gridtest.Partition(trace, 2)

	ref, err := shard.New(shard.Config{Shards: 2, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(trace))
	for i, recs := range trace {
		rep, err := ref.ProcessInterval(recs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderReport(rep)
	}
	ref.Close()

	// serveRoot runs a root collector and returns the reports it emitted
	// once the session ends.
	serveRoot := func(t *testing.T, cc wire.CollectorConfig) (addr string, wait func() []string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coll, err := wire.NewCollector(cfg, cc)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		serveErr := make(chan error, 1)
		go func() {
			serveErr <- coll.Serve(context.Background(), ln, func(rep *core.Report) error {
				got = append(got, renderReport(rep))
				return nil
			})
		}()
		return ln.Addr().String(), func() []string {
			if err := <-serveErr; err != nil {
				t.Fatalf("collector: %v", err)
			}
			coll.Close()
			return got
		}
	}
	// shipFrom runs both leaf agents against addr from interval from on.
	shipFrom := func(t *testing.T, addr string, from int) {
		var wg sync.WaitGroup
		for id := 0; id < 2; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				agent, err := wire.DialAgent(addr, id, cfg, wire.AgentOptions{Retry: fastRetry(int64(id))})
				if err != nil {
					t.Errorf("agent %d: dial: %v", id, err)
					return
				}
				shipIntervals(t, agent, cfg, parts[id], from, len(trace))
				if err := agent.Close(); err != nil {
					t.Errorf("agent %d: close: %v", id, err)
				}
			}(id)
		}
		wg.Wait()
	}
	compare := func(t *testing.T, got, want []string, first int) {
		if len(got) != len(want) {
			t.Fatalf("resumed session emitted %d reports, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("interval %d: report differs after resuming from the recorded checkpoint:\n got %s\nwant %s",
					first+i, got[i], want[i])
			}
		}
	}

	t.Run("collector", func(t *testing.T) {
		const closed = 3
		addr, wait := serveRoot(t, wire.CollectorConfig{
			Agents:         2,
			CheckpointPath: fixture(t, "v3_collector.ckpt"),
			Resume:         true,
		})
		shipFrom(t, addr, closed)
		compare(t, wait(), want[closed:], closed)
	})

	t.Run("relay", func(t *testing.T) {
		const held = 2
		rootAddr, wait := serveRoot(t, wire.CollectorConfig{Agents: 1})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rel, err := wire.NewRelay(cfg, wire.RelayConfig{
			Children:       2,
			Parent:         rootAddr,
			CheckpointPath: fixture(t, "v3_relay.ckpt"),
			Resume:         true,
			Retry:          fastRetry(9),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rel.Close()
		relErr := make(chan error, 1)
		go func() { relErr <- rel.Serve(context.Background(), ln) }()
		// The root's first two reports come from the held frames alone.
		shipFrom(t, ln.Addr().String(), held)
		if err := <-relErr; err != nil {
			t.Fatalf("relay: %v", err)
		}
		compare(t, wait(), want, 0)
	})
}

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
			Children: 2, Parent: "127.0.0.1:1", CheckpointPath: fixture(t, "v3_relay.ckpt"), Resume: true,
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
		Children: 2, Parent: "127.0.0.1:1", CheckpointPath: fixture(t, "v2_relay.ckpt"), Resume: true,
	}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("relay: %v, want %q", err, want)
	}
}
