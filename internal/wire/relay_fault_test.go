package wire_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// TestRelayTierCutsByteIdentical extends the chaosProxy fault injection
// to both tiers of a 2×2 relay tree: leaf 0's connection to its relay
// and relay 1's connection to the root are each cut at scripted frame
// positions mid-stream. Every tier redials and replays, and the root's
// report stream must still be byte-identical to an undisturbed
// single-process 4-shard run, with no interval flagged Partial.
func TestRelayTierCutsByteIdentical(t *testing.T) {
	trace := testTrace(10, 2000, 7)
	cfg := testPipelineConfig()

	ref, err := shard.New(shard.Config{Shards: 4, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(trace))
	alarmed := false
	for i, recs := range trace {
		rep, err := ref.ProcessInterval(recs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderReport(rep)
		alarmed = alarmed || rep.Alarm
	}
	ref.Close()
	if !alarmed {
		t.Fatal("reference run never alarmed; the test would not cover extraction")
	}
	parts := partition(t, trace, 4, cfg)

	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	root, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var got []string
	rootErr := make(chan error, 1)
	go func() {
		rootErr <- root.Serve(context.Background(), rootLn, func(rep *core.Report) error {
			if len(rep.Partial) != 0 {
				t.Errorf("interval %d flagged Partial %v; no leaf was abandoned", rep.Interval, rep.Partial)
			}
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	// Relay 1 reaches the root only through a proxy that cuts its first
	// connection after the Hello plus one merged frame and its second a
	// few frames later.
	upProxy := newChaosProxy(t, rootLn.Addr().String(), []int{2, 5})
	defer upProxy.close()

	relayLns := make([]net.Listener, 2)
	relays := make([]*wire.Relay, 2)
	relayErr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		parent := rootLn.Addr().String()
		if r == 1 {
			parent = upProxy.addr()
		}
		rel, err := wire.NewRelay(cfg, wire.RelayConfig{
			Children: 2,
			AgentID:  r,
			Parent:   parent,
			Retry:    fastRetry(int64(20 + r)),
		})
		if err != nil {
			t.Fatal(err)
		}
		relayLns[r], relays[r] = ln, rel
		go func(rel *wire.Relay, ln net.Listener) {
			relayErr <- rel.Serve(context.Background(), ln)
		}(rel, ln)
	}

	// Leaf 0 reaches relay 0 through its own scripted proxy: cut right
	// after the Hello, then again two frames later.
	leafProxy := newChaosProxy(t, relayLns[0].Addr().String(), []int{1, 3})
	defer leafProxy.close()

	var wg sync.WaitGroup
	for leaf := 0; leaf < 4; leaf++ {
		r, c := leaf/2, leaf%2
		addr := relayLns[r].Addr().String()
		if leaf == 0 {
			addr = leafProxy.addr()
		}
		wg.Add(1)
		go func(addr string, c, leaf int) {
			defer wg.Done()
			runEngineAgent(t, addr, c, cfg, parts[leaf], wire.AgentOptions{Retry: fastRetry(int64(1 + leaf))})
		}(addr, c, leaf)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if err := <-relayErr; err != nil {
			t.Fatalf("relay: %v", err)
		}
	}
	for _, rel := range relays {
		rel.Close()
	}
	if err := <-rootErr; err != nil {
		t.Fatalf("root collector: %v", err)
	}

	if leafProxy.accepted() < 2 {
		t.Fatalf("leaf proxy saw %d connections; the child→relay cut never forced a redial", leafProxy.accepted())
	}
	if upProxy.accepted() < 2 {
		t.Fatalf("upstream proxy saw %d connections; the relay→root cut never forced a redial", upProxy.accepted())
	}
	if len(got) != len(want) {
		t.Fatalf("root closed %d intervals, reference closed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: report differs from undisturbed run after relay-tier cuts:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}
}

// TestRelayCrashResumeFromCheckpoint kills a checkpointed relay
// mid-session (context cancellation: the process-equivalent of SIGKILL
// once the upstream connection is severed without Bye) and starts a
// replacement relay from the checkpoint on a new listener. The leaves —
// held at a barrier so their replay buffers still cover everything past
// the relay's checkpoint — redial and resume, the replacement re-offers
// its checkpointed held frames, and the root's report stream must be
// byte-identical to an undisturbed run with no boundary lost or
// duplicated.
func TestRelayCrashResumeFromCheckpoint(t *testing.T) {
	trace := testTrace(8, 2000, 6)
	cfg := testPipelineConfig()
	parts := partition(t, trace, 2, cfg)
	const barrierAt = 4 // leaves pause after shipping this many intervals

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

	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	root, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var got []string
	rootErr := make(chan error, 1)
	go func() {
		rootErr <- root.Serve(context.Background(), rootLn, func(rep *core.Report) error {
			if len(rep.Partial) != 0 {
				t.Errorf("interval %d flagged Partial %v across the relay restart", rep.Interval, rep.Partial)
			}
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	cpPath := filepath.Join(t.TempDir(), "relay.ckpt")
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var relayAddr atomic.Value
	relayAddr.Store(lnA.Addr().String())
	leafDialer := func() (net.Conn, error) {
		return net.Dial("tcp", relayAddr.Load().(string))
	}

	relayA, err := wire.NewRelay(cfg, wire.RelayConfig{
		Children:       2,
		AgentID:        0,
		Parent:         rootLn.Addr().String(),
		CheckpointPath: cpPath,
		Retry:          fastRetry(31),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	serveA := make(chan error, 1)
	go func() { serveA <- relayA.Serve(ctxA, lnA) }()

	// Leaves ship the first half and wait for the relay's checkpoint to
	// cover it (a checkpointed relay acks immediately after the durable
	// write, so the ack line is the checkpoint's watermark), then hold at
	// the barrier across the crash.
	atBarrier := make(chan struct{}, 2)
	resume := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			agent, err := wire.DialAgent(lnA.Addr().String(), id, cfg, wire.AgentOptions{
				Retry:  fastRetry(int64(10 + id)),
				Dialer: leafDialer,
			})
			if err != nil {
				t.Errorf("leaf %d: dial: %v", id, err)
				atBarrier <- struct{}{}
				return
			}
			shipIntervals(t, agent, cfg, parts[id], 0, barrierAt)
			for agent.Acked() < bnd(barrierAt-1) {
				time.Sleep(time.Millisecond)
			}
			atBarrier <- struct{}{}
			<-resume
			shipIntervals(t, agent, cfg, parts[id], barrierAt, len(trace))
			if err := agent.Close(); err != nil {
				t.Errorf("leaf %d: close: %v", id, err)
			}
		}(id)
	}
	<-atBarrier
	<-atBarrier
	cancelA()
	if err := <-serveA; !errors.Is(err, context.Canceled) {
		t.Fatalf("relay A exited with %v, want context.Canceled", err)
	}
	relayA.Close()

	// "Restart": a replacement relay resumes from the checkpoint on a new
	// address; the leaves' dialer follows it.
	relayB, err := wire.NewRelay(cfg, wire.RelayConfig{
		Children:       2,
		AgentID:        0,
		Parent:         rootLn.Addr().String(),
		CheckpointPath: cpPath,
		Resume:         true,
		Retry:          fastRetry(32),
	})
	if err != nil {
		t.Fatal(err)
	}
	relayAddr.Store(lnB.Addr().String())
	serveB := make(chan error, 1)
	go func() { serveB <- relayB.Serve(context.Background(), lnB) }()
	close(resume)
	wg.Wait()
	if err := <-serveB; err != nil {
		t.Fatalf("restarted relay: %v", err)
	}
	relayB.Close()
	if err := <-rootErr; err != nil {
		t.Fatalf("root collector: %v", err)
	}

	if len(got) != len(want) {
		t.Fatalf("crash+restart emitted %d reports, undisturbed run emitted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: report differs across the relay restart:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}
	m := decodeMetrics(t, root)
	if m.Agents[0].Reconnects < 1 {
		t.Errorf("root saw %d relay reconnects, want >= 1", m.Agents[0].Reconnects)
	}
}

// TestRelayLeafDeathPartialNamesLeaf kills one leaf permanently
// mid-session in a 2×2 tree running CloseWithout at the relay tier: the
// root's reports must keep closing and their Partial attribution must
// name the dead leaf's global ID (3 — relay 1, child 1), not the relay
// it sat behind, matching a reference run that simply never saw that
// leaf's remaining partition.
func TestRelayLeafDeathPartialNamesLeaf(t *testing.T) {
	trace := testTrace(8, 2000, 6)
	cfg := testPipelineConfig()
	parts := partition(t, trace, 4, cfg)
	const deadFrom = 4 // leaf 3's last shipped interval is deadFrom-1

	single, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want := make([]string, 0, len(trace))
	for i := range trace {
		for leaf := 0; leaf < 4; leaf++ {
			if leaf == 3 && i >= deadFrom {
				continue
			}
			single.ObserveBatch(parts[leaf][i])
		}
		rep, err := single.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if i >= deadFrom {
			rep.Partial = []int{3}
		}
		want = append(want, renderReport(rep))
	}

	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	root, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var got []string
	rootErr := make(chan error, 1)
	go func() {
		rootErr <- root.Serve(context.Background(), rootLn, func(rep *core.Report) error {
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	relayLns := make([]net.Listener, 2)
	relays := make([]*wire.Relay, 2)
	relayErr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rel, err := wire.NewRelay(cfg, wire.RelayConfig{
			Children: 2,
			AgentID:  r,
			Parent:   rootLn.Addr().String(),
			Policy:   wire.CloseWithout,
		})
		if err != nil {
			t.Fatal(err)
		}
		relayLns[r], relays[r] = ln, rel
		go func(rel *wire.Relay, ln net.Listener) {
			relayErr <- rel.Serve(context.Background(), ln)
		}(rel, ln)
	}

	// Leaf 3 (relay 1, local child 1) ships its first intervals, then its
	// machine dies: the raw connection closes with no Bye.
	a3, conn3 := dialMortal(t, relayLns[1].Addr().String(), 1, cfg)
	shipIntervals(t, a3, cfg, parts[3], 0, deadFrom)
	conn3.Close()

	// The surviving leaves run the whole trace and end cleanly. They must
	// run concurrently: a leaf's final ack is gated on the root closing
	// its boundaries, which needs frames from every relay at once.
	var wg sync.WaitGroup
	for leaf := 0; leaf < 3; leaf++ {
		r, c := leaf/2, leaf%2
		wg.Add(1)
		go func(addr string, c, leaf int) {
			defer wg.Done()
			a, err := wire.DialAgent(addr, c, cfg, wire.AgentOptions{})
			if err != nil {
				t.Errorf("leaf %d: dial: %v", leaf, err)
				return
			}
			shipIntervals(t, a, cfg, parts[leaf], 0, len(trace))
			if err := a.Close(); err != nil {
				t.Errorf("leaf %d: close: %v", leaf, err)
			}
		}(relayLns[r].Addr().String(), c, leaf)
	}
	wg.Wait()

	for r := 0; r < 2; r++ {
		if err := <-relayErr; err != nil {
			t.Fatalf("relay: %v", err)
		}
	}
	for _, rel := range relays {
		rel.Close()
	}
	if err := <-rootErr; err != nil {
		t.Fatalf("root collector: %v", err)
	}

	if len(got) != len(want) {
		t.Fatalf("root closed %d intervals, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: report differs (Partial must name leaf 3):\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
