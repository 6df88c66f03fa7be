package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"anomalyx"
	"anomalyx/internal/netflow"
	"anomalyx/internal/tracegen"
)

func TestParseArgsFlagPlumbing(t *testing.T) {
	o, err := parseArgs([]string{
		"-in", "trace.nf5", "-shards", "4", "-workers", "2", "-interval", "5m",
		"-bins", "256", "-train", "3", "-minsup", "11", "-top", "7",
		"-pipeline-depth", "3", "-v",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.in != "trace.nf5" || o.shards != 4 || o.workers != 2 ||
		o.interval != 5*time.Minute || o.bins != 256 || o.train != 3 || o.minsup != 11 || o.top != 7 || o.depth != 3 || !o.verbose {
		t.Fatalf("flags not plumbed: %+v", o)
	}
	if cfg := o.engineConfig(); cfg.PipelineDepth != 3 {
		t.Fatalf("pipeline depth not plumbed into engine config: %+v", cfg)
	}
}

func TestParseArgsDefaultsAndErrors(t *testing.T) {
	o, err := parseArgs([]string{"-in", "x"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.shards != 1 || o.workers != 0 || o.depth != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if _, err := parseArgs(nil, io.Discard); err == nil {
		t.Fatal("missing -in accepted")
	}
	if _, err := parseArgs([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, err := parseArgs([]string{"-in", "x", "-pipeline-depth", "0"}, io.Discard); err == nil {
		t.Fatal("-pipeline-depth 0 accepted")
	}
	if _, err := parseArgs([]string{"-in", "x", "-top", "-1"}, io.Discard); err == nil {
		t.Fatal("-top -1 accepted")
	}
	if o, err := parseArgs([]string{"-in", "x", "-top", "0"}, io.Discard); err != nil || o.top != 0 {
		t.Fatalf("-top 0: %v", err)
	}
	// Negative durations and worker counts are usage errors, not a
	// default in disguise; 0 keeps its documented meaning.
	for _, bad := range [][]string{
		{"-in", "x", "-interval", "-5m"},
		{"-in", "x", "-workers", "-3"},
		{"-mode", "collector", "-listen", ":1", "-agents", "2", "-hold-timeout", "-1s"},
	} {
		if _, err := parseArgs(bad, io.Discard); err == nil {
			t.Fatalf("args %v accepted", bad)
		}
	}
	if o, err := parseArgs([]string{"-in", "x", "-interval", "0", "-hold-timeout", "0"}, io.Discard); err != nil || o.interval != 0 {
		t.Fatalf("-interval 0 -hold-timeout 0: %v", err)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	// The engine config carries the detector, support and worker flags
	// and leaves the miner to the pipeline's built-in one.
	for _, workers := range []int{0, 1, 4} {
		o, err := parseArgs([]string{"-in", "x", "-workers", fmt.Sprint(workers), "-minsup", "9", "-votes", "2"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		cfg := o.engineConfig()
		if p := cfg.Pipeline; p.Workers != workers || p.MinSupport != 9 || p.Detector.Votes != 2 {
			t.Fatalf("workers=%d: flags not plumbed into pipeline config: %+v", workers, p)
		}
		if cfg.Pipeline.Miner != nil {
			t.Fatalf("miner pinned to %q", cfg.Pipeline.Miner.Name())
		}
	}
}

// testTraceV5 renders a small seeded trace — benign background plus a
// dstPort flood in interval floodAt — as concatenated NetFlow v5 export
// packets, the CLI's input format.
func testTraceV5(t *testing.T, intervals, baseFlows, floodAt int) []byte {
	t.Helper()
	cfg := tracegen.SmallConfig()
	cfg.Intervals = intervals
	cfg.BaseFlows = baseFlows
	cfg.Events = tracegen.Schedule(cfg.Intervals, cfg.BaseFlows)
	gen := tracegen.New(cfg)
	var buf bytes.Buffer
	w := netflow.NewWriter(&buf, cfg.IntervalStart(0))
	for i := 0; i < intervals; i++ {
		recs := gen.Interval(i)
		if i == floodAt {
			for j := range recs {
				if j%3 == 0 {
					recs[j].DstAddr, recs[j].DstPort = 42, 31337
					recs[j].Packets, recs[j].Bytes = 1, 40
				}
			}
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunShardsWorkersDeterminism runs the full CLI path — v5 decode,
// streaming engine, sharded or not, parallel workers or not — and
// requires byte-identical stdout for every (shards, workers)
// combination, including an alarming interval, and for every pipeline
// depth.
func TestRunShardsWorkersDeterminism(t *testing.T) {
	trace := testTraceV5(t, 8, 1500, 6)
	baseArgs := []string{
		"-in", "unused", "-interval", "15m", "-bins", "256", "-train", "4", "-v",
	}
	runWith := func(extra ...string) (string, int, int) {
		o, err := parseArgs(append(append([]string{}, baseArgs...), extra...), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		intervals, alarms, err := run(o, bytes.NewReader(trace), &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), intervals, alarms
	}

	want, wantIntervals, wantAlarms := runWith("-shards", "1", "-workers", "1")
	if wantIntervals != 8 {
		t.Fatalf("intervals = %d, want 8", wantIntervals)
	}
	if wantAlarms == 0 {
		t.Fatal("no alarm in reference run; extraction path not covered")
	}
	if !strings.Contains(want, "ALARM") {
		t.Fatal("report output missing alarm line")
	}
	for _, combo := range [][]string{
		{"-shards", "2", "-workers", "2"},
		{"-shards", "4", "-workers", "4"},
		{"-shards", "2", "-workers", "0"},
		{"-shards", "2", "-workers", "2", "-pipeline-depth", "3"},
	} {
		got, intervals, alarms := runWith(combo...)
		if intervals != wantIntervals || alarms != wantAlarms {
			t.Fatalf("%v: counts (%d, %d) diverged from (%d, %d)",
				combo, intervals, alarms, wantIntervals, wantAlarms)
		}
		if got != want {
			t.Fatalf("%v: output diverged\ngot:\n%s\nwant:\n%s", combo, got, want)
		}
	}
}

// TestParseArgsModes pins the per-mode flag requirements: agent mode
// needs an input, a collector address, and an ID; collector mode needs
// a listen address and an agent count; unknown modes are rejected.
func TestParseArgsModes(t *testing.T) {
	o, err := parseArgs([]string{
		"-mode", "agent", "-in", "x", "-connect", "h:1", "-agent-id", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.mode != "agent" || o.connect != "h:1" || o.agentID != 2 {
		t.Fatalf("agent flags not plumbed: %+v", o)
	}
	o, err = parseArgs([]string{
		"-mode", "collector", "-listen", ":1", "-agents", "3",
		"-partial", "close", "-hold-timeout", "30s",
		"-checkpoint", "cp.axcp", "-resume", "-metrics", ":9000",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.mode != "collector" || o.listen != ":1" || o.coll.Agents != 3 {
		t.Fatalf("collector flags not plumbed: %+v", o)
	}
	if o.coll.Policy != anomalyx.CloseWithout || o.coll.HoldTimeout != 30*time.Second ||
		o.coll.CheckpointPath != "cp.axcp" || !o.coll.Resume || o.coll.MetricsAddr != ":9000" {
		t.Fatalf("fault-tolerance flags not plumbed: %+v", o)
	}
	// Relay mode is both halves at once: it must name its upstream like
	// an agent and its fan-in like a collector.
	o, err = parseArgs([]string{
		"-mode", "relay", "-listen", ":2", "-connect", "root:1",
		"-agent-id", "1", "-agents", "2", "-leaf-base", "6",
		"-partial", "close", "-checkpoint", "relay.axrp", "-resume",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.mode != "relay" || o.listen != ":2" || o.connect != "root:1" ||
		o.agentID != 1 || o.coll.Agents != 2 || o.leafBase != 6 {
		t.Fatalf("relay flags not plumbed: %+v", o)
	}
	if o.coll.Policy != anomalyx.CloseWithout || o.coll.CheckpointPath != "relay.axrp" || !o.coll.Resume {
		t.Fatalf("relay fault-tolerance flags not plumbed: %+v", o)
	}
	for _, bad := range [][]string{
		{"-mode", "agent", "-connect", "h:1", "-agent-id", "0"}, // no -in
		{"-mode", "agent", "-in", "x", "-agent-id", "0"},        // no -connect
		{"-mode", "agent", "-in", "x", "-connect", "h:1"},       // no -agent-id
		{"-mode", "agent", "-in", "x", "-connect", "h:1", "-agent-id", "0",
			"-pipeline-depth", "2"}, // agents close inline
		{"-mode", "collector", "-agents", "2"},  // no -listen
		{"-mode", "collector", "-listen", ":1"}, // no -agents
		{"-mode", "collector", "-listen", ":1", "-agents", "2",
			"-partial", "sometimes"}, // bogus partial policy
		{"-mode", "collector", "-listen", ":1", "-agents", "2", "-resume"},       // -resume without -checkpoint
		{"-mode", "relay", "-connect", "r:1", "-agent-id", "0", "-agents", "2"},  // no -listen
		{"-mode", "relay", "-listen", ":2", "-agent-id", "0", "-agents", "2"},    // no -connect
		{"-mode", "relay", "-listen", ":2", "-connect", "r:1", "-agents", "2"},   // no -agent-id
		{"-mode", "relay", "-listen", ":2", "-connect", "r:1", "-agent-id", "0"}, // no -agents
		{"-mode", "relay", "-listen", ":2", "-connect", "r:1", "-agent-id", "0",
			"-agents", "2", "-partial", "maybe"}, // bogus partial policy
		{"-mode", "relay", "-listen", ":2", "-connect", "r:1", "-agent-id", "0",
			"-agents", "2", "-resume"}, // -resume without -checkpoint
		{"-mode", "relay", "-listen", ":2", "-connect", "r:1", "-agent-id", "0",
			"-agents", "2", "-leaf-base", "-1"}, // negative leaf base
		{"-mode", "swarm", "-in", "x"}, // unknown mode
	} {
		if _, err := parseArgs(bad, io.Discard); err == nil {
			t.Fatalf("args %v accepted", bad)
		}
	}
}

// TestDistributedModesMatchLocalRun drives the CLI's agent and
// collector paths end to end over loopback: two agents stream disjoint
// halves of a trace to a collector, whose printed reports must be
// byte-identical to a local -mode run over the whole trace.
func TestDistributedModesMatchLocalRun(t *testing.T) {
	cfg := tracegen.SmallConfig()
	cfg.Intervals, cfg.BaseFlows = 8, 1500
	cfg.Events = tracegen.Schedule(cfg.Intervals, cfg.BaseFlows)
	gen := tracegen.New(cfg)
	var whole, part0, part1 bytes.Buffer
	writers := []*netflow.Writer{
		netflow.NewWriter(&whole, cfg.IntervalStart(0)),
		netflow.NewWriter(&part0, cfg.IntervalStart(0)),
		netflow.NewWriter(&part1, cfg.IntervalStart(0)),
	}
	for i := 0; i < cfg.Intervals; i++ {
		recs := gen.Interval(i)
		if i == 6 {
			for j := range recs {
				if j%3 == 0 {
					recs[j].DstAddr, recs[j].DstPort = 42, 31337
					recs[j].Packets, recs[j].Bytes = 1, 40
				}
			}
		}
		for j, rec := range recs {
			if err := writers[0].Write(rec); err != nil {
				t.Fatal(err)
			}
			if err := writers[1+j%2].Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	baseArgs := []string{"-interval", "15m", "-bins", "256", "-train", "4", "-v"}
	localOpts, err := parseArgs(append([]string{"-in", "x"}, baseArgs...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var localOut bytes.Buffer
	wantIntervals, wantAlarms, err := run(localOpts, bytes.NewReader(whole.Bytes()), &localOut)
	if err != nil {
		t.Fatal(err)
	}
	if wantAlarms == 0 {
		t.Fatal("local reference run never alarmed")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	collOpts, err := parseArgs(append([]string{
		"-mode", "collector", "-listen", "ignored", "-agents", "2",
	}, baseArgs...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var collOut bytes.Buffer
	type collResult struct {
		intervals, alarms int
		err               error
	}
	collDone := make(chan collResult, 1)
	go func() {
		intervals, alarms, err := serveCollector(collOpts, ln, &collOut)
		collDone <- collResult{intervals, alarms, err}
	}()

	parts := [][]byte{part0.Bytes(), part1.Bytes()}
	agentErrs := make(chan error, len(parts))
	for id := range parts {
		go func(id int) {
			o, err := parseArgs(append([]string{
				"-mode", "agent", "-in", "x", "-connect", ln.Addr().String(),
				"-agent-id", fmt.Sprint(id),
			}, baseArgs...), io.Discard)
			if err != nil {
				agentErrs <- err
				return
			}
			_, err = runAgent(o, bytes.NewReader(parts[id]), io.Discard)
			agentErrs <- err
		}(id)
	}
	for range parts {
		if err := <-agentErrs; err != nil {
			t.Fatal(err)
		}
	}
	res := <-collDone
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.intervals != wantIntervals || res.alarms != wantAlarms {
		t.Fatalf("collector counts (%d, %d) diverged from local run (%d, %d)",
			res.intervals, res.alarms, wantIntervals, wantAlarms)
	}
	if collOut.String() != localOut.String() {
		t.Fatalf("collector output diverged from local run\ngot:\n%s\nwant:\n%s",
			collOut.String(), localOut.String())
	}
}

// TestRelayModeMatchesLocalRun drives the CLI's relay path end to end:
// four agents stream quarter-traces to two relays, the relays ship the
// merged intervals to a root collector, and the root's printed reports
// must be byte-identical to a local -mode run over the whole trace.
func TestRelayModeMatchesLocalRun(t *testing.T) {
	cfg := tracegen.SmallConfig()
	cfg.Intervals, cfg.BaseFlows = 8, 1500
	cfg.Events = tracegen.Schedule(cfg.Intervals, cfg.BaseFlows)
	gen := tracegen.New(cfg)
	var whole bytes.Buffer
	var parts [4]bytes.Buffer
	writers := []*netflow.Writer{netflow.NewWriter(&whole, cfg.IntervalStart(0))}
	for i := range parts {
		writers = append(writers, netflow.NewWriter(&parts[i], cfg.IntervalStart(0)))
	}
	for i := 0; i < cfg.Intervals; i++ {
		recs := gen.Interval(i)
		if i == 6 {
			for j := range recs {
				if j%3 == 0 {
					recs[j].DstAddr, recs[j].DstPort = 42, 31337
					recs[j].Packets, recs[j].Bytes = 1, 40
				}
			}
		}
		for j, rec := range recs {
			if err := writers[0].Write(rec); err != nil {
				t.Fatal(err)
			}
			if err := writers[1+j%4].Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	baseArgs := []string{"-interval", "15m", "-bins", "256", "-train", "4", "-v"}
	localOpts, err := parseArgs(append([]string{"-in", "x"}, baseArgs...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var localOut bytes.Buffer
	wantIntervals, wantAlarms, err := run(localOpts, bytes.NewReader(whole.Bytes()), &localOut)
	if err != nil {
		t.Fatal(err)
	}
	if wantAlarms == 0 {
		t.Fatal("local reference run never alarmed")
	}

	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()
	collOpts, err := parseArgs(append([]string{
		"-mode", "collector", "-listen", "ignored", "-agents", "2",
	}, baseArgs...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var collOut bytes.Buffer
	type collResult struct {
		intervals, alarms int
		err               error
	}
	collDone := make(chan collResult, 1)
	go func() {
		intervals, alarms, err := serveCollector(collOpts, rootLn, &collOut)
		collDone <- collResult{intervals, alarms, err}
	}()

	relayLns := make([]net.Listener, 2)
	relayDone := make(chan error, 2)
	for r := 0; r < 2; r++ {
		relayLns[r], err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		relayOpts, err := parseArgs(append([]string{
			"-mode", "relay", "-listen", "ignored", "-connect", rootLn.Addr().String(),
			"-agent-id", fmt.Sprint(r), "-agents", "2",
		}, baseArgs...), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		go func(o *options, ln net.Listener) {
			relayDone <- runRelay(o, ln)
		}(relayOpts, relayLns[r])
	}

	agentErrs := make(chan error, len(parts))
	for leaf := range parts {
		go func(leaf int) {
			o, err := parseArgs(append([]string{
				"-mode", "agent", "-in", "x",
				"-connect", relayLns[leaf/2].Addr().String(),
				"-agent-id", fmt.Sprint(leaf % 2),
			}, baseArgs...), io.Discard)
			if err != nil {
				agentErrs <- err
				return
			}
			_, err = runAgent(o, bytes.NewReader(parts[leaf].Bytes()), io.Discard)
			agentErrs <- err
		}(leaf)
	}
	for range parts {
		if err := <-agentErrs; err != nil {
			t.Fatal(err)
		}
	}
	for range relayLns {
		if err := <-relayDone; err != nil {
			t.Fatalf("relay: %v", err)
		}
	}
	res := <-collDone
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.intervals != wantIntervals || res.alarms != wantAlarms {
		t.Fatalf("root counts (%d, %d) diverged from local run (%d, %d)",
			res.intervals, res.alarms, wantIntervals, wantAlarms)
	}
	if collOut.String() != localOut.String() {
		t.Fatalf("root output diverged from local run\ngot:\n%s\nwant:\n%s",
			collOut.String(), localOut.String())
	}
}

// TestRelayModeConfigMismatchSurfaces pins the exit-3 path through a
// relay: when the relay's detection flags disagree with its upstream
// collector's, runRelay must surface a *ConfigMismatchError — the error
// fatal maps to exit code 3 — rather than a generic dial failure.
func TestRelayModeConfigMismatchSurfaces(t *testing.T) {
	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()
	collOpts, err := parseArgs([]string{
		"-mode", "collector", "-listen", "ignored", "-agents", "1", "-bins", "512",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	collDone := make(chan error, 1)
	go func() {
		_, _, err := serveCollector(collOpts, rootLn, io.Discard)
		collDone <- err
	}()

	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relayOpts, err := parseArgs([]string{
		"-mode", "relay", "-listen", "ignored", "-connect", rootLn.Addr().String(),
		"-agent-id", "0", "-agents", "1", "-bins", "256",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	err = runRelay(relayOpts, relayLn)
	var mismatch *anomalyx.ConfigMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("runRelay returned %v, want a *ConfigMismatchError", err)
	}
	// The root is still waiting for its one agent; tear it down and let
	// the expected teardown error go.
	rootLn.Close()
	<-collDone
}

// TestRunSurfacesBadInput covers the decode-error path.
func TestRunSurfacesBadInput(t *testing.T) {
	o, err := parseArgs([]string{"-in", "x"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, _, err := run(o, strings.NewReader("not a netflow packet"), &out); err == nil {
		t.Fatal("garbage input accepted")
	}
}

// TestRunRejectsNegativeShards: invalid shard counts error out instead
// of silently running unsharded or resolving to GOMAXPROCS.
func TestRunRejectsNegativeShards(t *testing.T) {
	o, err := parseArgs([]string{"-in", "x", "-shards", "-3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, _, err := run(o, strings.NewReader(""), &out); err == nil {
		t.Fatal("negative shard count accepted")
	}
}
