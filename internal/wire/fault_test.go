package wire_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// fastRetry is the redial policy the fault tests give their agents:
// plenty of attempts with millisecond backoff, so a scripted cut heals
// in wall-time noise instead of the production default's seconds.
func fastRetry(seed int64) wire.RetryConfig {
	return wire.RetryConfig{
		MaxAttempts: 400,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Seed:        seed,
	}
}

// chaosProxy forwards agent connections to a collector and cuts them at
// scripted points: the k-th accepted connection is killed after
// forwarding cuts[k] agent→collector frames (the Hello counts), so a
// test can break the transport at exact protocol positions — mid
// handshake, between interval frames — while the collector and agent
// under test see only an ordinary broken TCP connection. Connections
// beyond the script pass through untouched.
type chaosProxy struct {
	ln     net.Listener
	target string
	cuts   []int

	mu    sync.Mutex
	conns int
}

func newChaosProxy(t *testing.T, target string, cuts []int) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target, cuts: cuts}
	go p.accept()
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) close() { p.ln.Close() }

// accepted returns how many connections the proxy has seen.
func (p *chaosProxy) accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns
}

func (p *chaosProxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		idx := p.conns
		p.conns++
		p.mu.Unlock()
		go p.pipe(conn, idx)
	}
}

// pipe relays one connection, frame-aware in the agent→collector
// direction so the cut lands on a frame boundary (a clean truncation;
// torn frames are frame_test territory).
func (p *chaosProxy) pipe(client net.Conn, idx int) {
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	defer client.Close()
	defer up.Close()
	go func() {
		io.Copy(client, up) // collector→agent: HelloOK and acks flow untouched
		client.Close()
	}()
	limit := -1
	if idx < len(p.cuts) {
		limit = p.cuts[idx]
	}
	var hdr [5]byte
	for forwarded := 0; limit < 0 || forwarded < limit; forwarded++ {
		if _, err := io.ReadFull(client, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if n == 0 || n > 1<<30 {
			return
		}
		payload := make([]byte, n-1)
		if _, err := io.ReadFull(client, payload); err != nil {
			return
		}
		if _, err := up.Write(hdr[:]); err != nil {
			return
		}
		if _, err := up.Write(payload); err != nil {
			return
		}
	}
}

// partition splits a trace across n agents with the same hash router
// in-process sharding uses, so distributed runs are comparable to an
// n-shard single process.
func partition(t *testing.T, trace [][]flow.Record, n int, cfg core.Config) [][][]flow.Record {
	t.Helper()
	router, err := shard.New(shard.Config{Shards: n, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
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

// runEngineAgent drives one agent end to end — local sharded pipeline,
// shipping engine, wire stream — exactly like production, but through
// DialAgent so the test controls the retry policy and dial target.
func runEngineAgent(t *testing.T, addr string, id int, cfg core.Config, part [][]flow.Record, opts wire.AgentOptions) {
	t.Helper()
	agent, err := wire.DialAgent(addr, id, cfg, opts)
	if err != nil {
		t.Errorf("agent %d: dial: %v", id, err)
		return
	}
	sp, err := shard.New(shard.Config{Shards: 1, Pipeline: cfg})
	if err != nil {
		t.Errorf("agent %d: %v", id, err)
		agent.Close()
		return
	}
	eng, err := engine.NewShipping(engine.Config{IntervalLen: 15 * time.Minute}, sp, agent.ShipOpenInterval)
	if err != nil {
		t.Errorf("agent %d: %v", id, err)
		sp.Close()
		agent.Close()
		return
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range eng.Reports() {
		}
	}()
	for _, recs := range part {
		if _, err := eng.SubmitBatch(recs); err != nil {
			t.Errorf("agent %d: submit: %v", id, err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Errorf("agent %d: engine close: %v", id, err)
	}
	<-drained
	if err := agent.Close(); err != nil {
		t.Errorf("agent %d: close: %v", id, err)
	}
}

// dialMortal connects a hand-driven agent whose machine can die: it
// never redials, and the returned raw connection lets the test close
// the transport with no Bye and no replay.
func dialMortal(t *testing.T, addr string, id int, cfg core.Config) (*wire.Agent, net.Conn) {
	t.Helper()
	var conn net.Conn
	agent, err := wire.DialAgent(addr, id, cfg, wire.AgentOptions{
		Retry: wire.RetryConfig{MaxAttempts: -1},
		Dialer: func() (net.Conn, error) {
			var err error
			conn, err = net.Dial("tcp", addr)
			return conn, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return agent, conn
}

// bnd maps an interval ordinal to an absolute grid boundary for the
// tests that drive agents by hand (15-minute grid in Unix ms, matching
// what the engine would stamp).
func bnd(i int) int64 { return int64(i+1) * 900_000 }

// sessionMetrics decodes a collector's metrics JSON for assertions.
type sessionMetrics struct {
	LastClosedBoundary int64 `json:"last_closed_boundary"`
	ReportsEmitted     int64 `json:"reports_emitted"`
	Agents             []struct {
		Status     string `json:"status"`
		LastAcked  int64  `json:"last_acked_boundary"`
		Reconnects int64  `json:"reconnects"`
		DupDrops   int64  `json:"dup_drops"`
	} `json:"agents"`
}

func decodeMetrics(t *testing.T, coll *wire.Collector) sessionMetrics {
	t.Helper()
	var m sessionMetrics
	if err := json.Unmarshal([]byte(coll.Metrics().String()), &m); err != nil {
		t.Fatalf("decoding collector metrics: %v", err)
	}
	return m
}

// TestReconnectReplayByteIdentical is the headline fault-injection
// check: one agent's transport is cut at scripted frame positions —
// immediately after the handshake, and twice more between interval
// frames — forcing redials and replay, and the collector's report
// stream must still be byte-identical to an undisturbed single-process
// two-shard run, with no interval flagged Partial.
func TestReconnectReplayByteIdentical(t *testing.T) {
	trace := testTrace(10, 2000, 7)
	cfg := testPipelineConfig()

	ref, err := shard.New(shard.Config{Shards: 2, Pipeline: cfg})
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
	parts := partition(t, trace, 2, cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coll, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	var got []string
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- coll.Serve(context.Background(), ln, func(rep *core.Report) error {
			if len(rep.Partial) != 0 {
				t.Errorf("interval %d flagged Partial %v; no agent was abandoned", rep.Interval, rep.Partial)
			}
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	// Cut agent 0's first connection right after the Hello, its second
	// after two more frames, its third a little later; the fourth runs
	// clean.
	proxy := newChaosProxy(t, ln.Addr().String(), []int{1, 3, 6})
	defer proxy.close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		runEngineAgent(t, proxy.addr(), 0, cfg, parts[0], wire.AgentOptions{Retry: fastRetry(1)})
	}()
	go func() {
		defer wg.Done()
		runEngineAgent(t, ln.Addr().String(), 1, cfg, parts[1], wire.AgentOptions{Retry: fastRetry(2)})
	}()
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("collector: %v", err)
	}

	if proxy.accepted() < 2 {
		t.Fatalf("proxy saw %d connections; the scripted cut never forced a redial", proxy.accepted())
	}
	if len(got) != len(want) {
		t.Fatalf("collector closed %d intervals, reference closed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: report differs from undisturbed run after reconnects:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}
	m := decodeMetrics(t, coll)
	if m.Agents[0].Reconnects < 1 {
		t.Errorf("agent 0 reconnects = %d, want >= 1", m.Agents[0].Reconnects)
	}
	if m.ReportsEmitted != int64(len(want)) {
		t.Errorf("metrics report %d emitted, want %d", m.ReportsEmitted, len(want))
	}
}

// shipIntervals drains each interval's partition through a local
// pipeline and ships it by hand — the manual-agent harness for tests
// that need precise control over when an agent dies.
func shipIntervals(t *testing.T, agent *wire.Agent, cfg core.Config, part [][]flow.Record, from, to int) {
	t.Helper()
	sp, err := shard.New(shard.Config{Shards: 1, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i := from; i < to; i++ {
		sp.ObserveBatch(part[i])
		if err := agent.ShipOpenInterval(bnd(i), sp.DrainOpenInterval()); err != nil {
			t.Fatalf("ship interval %d: %v", i, err)
		}
	}
}

// TestCloseWithoutFlagsDeadAgentPartial kills one agent permanently
// halfway through a session running the CloseWithout policy: the
// collector must keep closing intervals — flagged Partial with the dead
// agent's ID — and the reports must equal a reference run that simply
// never saw the dead agent's remaining partition.
func TestCloseWithoutFlagsDeadAgentPartial(t *testing.T) {
	trace := testTrace(8, 2000, 6)
	cfg := testPipelineConfig()
	parts := partition(t, trace, 2, cfg)
	const deadFrom = 4 // agent 1's last shipped interval is deadFrom-1

	single, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want := make([]string, 0, len(trace))
	for i := range trace {
		single.ObserveBatch(parts[0][i])
		if i < deadFrom {
			single.ObserveBatch(parts[1][i])
		}
		rep, err := single.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if i >= deadFrom {
			rep.Partial = []int{1}
		}
		want = append(want, renderReport(rep))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coll, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: 2, Policy: wire.CloseWithout})
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	var got []string
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- coll.Serve(context.Background(), ln, func(rep *core.Report) error {
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	// Agent 1 ships its first intervals, then its machine dies: the raw
	// connection closes with no Bye and no replay buffer left behind.
	a1, conn1 := dialMortal(t, ln.Addr().String(), 1, cfg)
	shipIntervals(t, a1, cfg, parts[1], 0, deadFrom)
	conn1.Close()

	// Agent 0 runs the whole trace and ends cleanly.
	a0, err := wire.DialAgent(ln.Addr().String(), 0, cfg, wire.AgentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shipIntervals(t, a0, cfg, parts[0], 0, len(trace))
	if err := a0.Close(); err != nil {
		t.Fatal(err)
	}

	if err := <-serveErr; err != nil {
		t.Fatalf("collector: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("collector closed %d intervals, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: report differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	m := decodeMetrics(t, coll)
	if m.Agents[1].Status != "dead" {
		t.Errorf("agent 1 final status %q, want dead", m.Agents[1].Status)
	}
	if m.Agents[0].Status != "bye" {
		t.Errorf("agent 0 final status %q, want bye", m.Agents[0].Status)
	}
}

// TestHoldTimeoutClosesPartial runs HoldWithTimeout against an agent
// that dies mid-session: the collector holds the next interval until
// the timer fires, then declares the agent dead and closes the rest of
// the trace Partial — the session must still terminate on its own.
func TestHoldTimeoutClosesPartial(t *testing.T) {
	trace := testTrace(6, 1500, 5)
	cfg := testPipelineConfig()
	parts := partition(t, trace, 2, cfg)
	const deadFrom = 2

	single, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want := make([]string, 0, len(trace))
	for i := range trace {
		single.ObserveBatch(parts[0][i])
		if i < deadFrom {
			single.ObserveBatch(parts[1][i])
		}
		rep, err := single.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if i >= deadFrom {
			rep.Partial = []int{1}
		}
		want = append(want, renderReport(rep))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coll, err := wire.NewCollector(cfg, wire.CollectorConfig{
		Agents:      2,
		Policy:      wire.HoldWithTimeout,
		HoldTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	var got []string
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- coll.Serve(context.Background(), ln, func(rep *core.Report) error {
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	a1, conn1 := dialMortal(t, ln.Addr().String(), 1, cfg)
	shipIntervals(t, a1, cfg, parts[1], 0, deadFrom)
	conn1.Close()

	a0, err := wire.DialAgent(ln.Addr().String(), 0, cfg, wire.AgentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shipIntervals(t, a0, cfg, parts[0], 0, len(trace))
	if err := a0.Close(); err != nil {
		t.Fatal(err)
	}

	if err := <-serveErr; err != nil {
		t.Fatalf("collector: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("collector closed %d intervals, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: report differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestCollectorRestartResumesFromCheckpoint crashes the collector in
// the middle of a session (the emit callback fails, as a full disk or a
// kill -9 would) and starts a fresh collector process-equivalent from
// the checkpoint on a new listener. The agents — held at a barrier so
// their replay buffers still cover everything past the checkpoint —
// redial, resume, and the concatenated report stream must be
// byte-identical to an undisturbed run.
func TestCollectorRestartResumesFromCheckpoint(t *testing.T) {
	trace := testTrace(8, 2000, 6)
	cfg := testPipelineConfig()
	parts := partition(t, trace, 2, cfg)
	const crashAfter = 3 // reports emitted before the injected crash
	const barrierAt = 4  // agents pause after shipping this many intervals

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

	cpPath := filepath.Join(t.TempDir(), "collector.ckpt")
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var addr atomic.Value
	addr.Store(lnA.Addr().String())
	dialer := func() (net.Conn, error) {
		return net.Dial("tcp", addr.Load().(string))
	}

	collA, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: 2, CheckpointPath: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	errCrash := errors.New("injected collector crash")
	serveA := make(chan error, 1)
	go func() {
		serveA <- collA.Serve(context.Background(), lnA, func(rep *core.Report) error {
			mu.Lock()
			defer mu.Unlock()
			if len(got) == crashAfter {
				return errCrash
			}
			if len(rep.Partial) != 0 {
				t.Errorf("interval %d flagged Partial %v before the crash", rep.Interval, rep.Partial)
			}
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	// Agents ship the first half, wait out the restart at a barrier, and
	// ship the rest; their replay buffers carry the frames the crashed
	// collector absorbed but never checkpointed.
	atBarrier := make(chan struct{}, 2)
	resume := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			agent, err := wire.DialAgent(lnA.Addr().String(), id, cfg, wire.AgentOptions{
				Retry:  fastRetry(int64(10 + id)),
				Dialer: dialer,
			})
			if err != nil {
				t.Errorf("agent %d: dial: %v", id, err)
				atBarrier <- struct{}{}
				return
			}
			shipIntervals(t, agent, cfg, parts[id], 0, barrierAt)
			atBarrier <- struct{}{}
			<-resume
			shipIntervals(t, agent, cfg, parts[id], barrierAt, len(trace))
			if err := agent.Close(); err != nil {
				t.Errorf("agent %d: close: %v", id, err)
			}
		}(id)
	}
	<-atBarrier
	<-atBarrier
	if err := <-serveA; !errors.Is(err, errCrash) {
		t.Fatalf("collector A exited with %v, want the injected crash", err)
	}
	collA.Close()

	// "Restart": a brand-new collector resumes from the checkpoint on a
	// new address; the agents' dialer follows.
	collB, err := wire.NewCollector(cfg, wire.CollectorConfig{
		Agents:         2,
		CheckpointPath: cpPath,
		Resume:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer collB.Close()
	addr.Store(lnB.Addr().String())
	serveB := make(chan error, 1)
	go func() {
		serveB <- collB.Serve(context.Background(), lnB, func(rep *core.Report) error {
			mu.Lock()
			defer mu.Unlock()
			if len(rep.Partial) != 0 {
				t.Errorf("interval %d flagged Partial %v after the restart", rep.Interval, rep.Partial)
			}
			got = append(got, renderReport(rep))
			return nil
		})
	}()
	close(resume)
	wg.Wait()
	if err := <-serveB; err != nil {
		t.Fatalf("restarted collector: %v", err)
	}

	if len(got) != len(want) {
		t.Fatalf("crash+restart emitted %d reports, undisturbed run emitted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: report differs across the restart:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}
}
