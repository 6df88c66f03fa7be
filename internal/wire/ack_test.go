package wire_test

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/wire"
)

// shipper is one agent of an ack test, shipping drained intervals of
// its own pipeline from a goroutine so the test can tell a ship that
// returns from one that blocks.
type shipper struct {
	agent *wire.Agent
	p     *core.Pipeline
}

// newShipper dials root as agent id with a replayBuffer of replay (0
// takes the default). When the test ends it cancels root before it
// closes the agent, so a failed test's Bye and ships fail fast instead
// of waiting on a root with no credit to read them.
func newShipper(t *testing.T, root *host, id, replay int) *shipper {
	t.Helper()
	return newShipperVia(t, root, id, replay, root.dial)
}

// newShipperVia is newShipper over the links dial opens.
func newShipperVia(t *testing.T, root *host, id, replay int, dial func() (net.Conn, error)) *shipper {
	t.Helper()
	p, err := core.New(root.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	agent, err := wire.DialAgent("", id, root.cfg, wire.AgentOptions{
		Retry:        wire.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		ReplayBuffer: replay,
		Dialer:       dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		root.cancel()
		agent.Close()
	})
	return &shipper{agent: agent, p: p}
}

// ship drains recs as the interval ending at boundary and ships it; the
// channel answers the ship's error.
func (s *shipper) ship(recs []flow.Record, boundary int64) <-chan error {
	s.p.ObserveBatch(recs)
	oi := s.p.DrainOpenInterval() // never given back, so the next drain allocates afresh
	done := make(chan error, 1)
	go func() { done <- s.agent.ShipOpenInterval(boundary, oi) }()
	return done
}

// returns fails t unless the ship answers nil within five seconds.
func returns(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
	}
}

// TestRootAcksQueuedFrame pins the commit point of a root without a
// checkpoint: a frame it has queued is as durable as it will ever be, so
// the root acks it then, not once it has closed the boundary. Agent 1 is
// connected and silent, so no boundary can close. Agent 0, with a
// one-frame replay buffer, still ships as many intervals as the root's
// ingest credits plus its own buffer hold, and is acked for every one the
// root has queued; agent 1 is acked nothing.
func TestRootAcksQueuedFrame(t *testing.T) {
	gridtest.NoLeak(t)
	cfg := gridtest.Config()
	root := serve(t, cfg, wire.CollectorConfig{Agents: 2})
	silent := newShipper(t, root, 1, 0)
	a := newShipper(t, root, 0, 1)

	trace := gridtest.Trace(wire.QueueCap+1, 500, -1)
	for i, recs := range trace {
		returns(t, fmt.Sprintf("agent 0 ship %d with agent 1 silent", i), a.ship(recs, bnd(i)))
	}
	queued := bnd(wire.QueueCap - 1)
	eventually(t, "agent 0 acked up to its queued frames", func() bool { return a.agent.Acked() >= queued })
	m := root.metrics(t)
	if m.ReportsEmitted != 0 || m.LastClosed != 0 {
		t.Fatalf("root closed up to %d and emitted %d reports with agent 1 silent", m.LastClosed, m.ReportsEmitted)
	}
	if got := a.agent.Acked(); got != queued {
		t.Errorf("agent 0 acked %d, want its last queued boundary %d", got, queued)
	}
	if got := m.Agents[0].LastAcked; got != queued {
		t.Errorf("root metrics: agent 0 last acked %d, want %d", got, queued)
	}
	if got, mm := silent.agent.Acked(), m.Agents[1].LastAcked; got != 0 || mm != 0 {
		t.Errorf("silent agent 1 acked %d (metrics %d), want 0", got, mm)
	}

	// Agent 1's Bye lets every boundary close without it.
	if err := silent.agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := root.end(t); err != nil {
		t.Fatal(err)
	}
	if len(root.got) != len(trace) {
		t.Errorf("root emitted %d reports, want %d", len(root.got), len(trace))
	}
}

// TestHoldTimeoutBoundsSilentAgent: HoldTimeout also bounds an agent
// that stays connected and ships nothing, as a hung process or a
// half-open socket does. Agent 1 connects and stays silent while agent
// 0 ships three intervals, which close Partial [1] once the hold timer
// fires.
//   - close: agent 0's Close returns. Were the silent agent to hold
//     every boundary, its Bye would wait forever behind a frame the
//     root has no ingest credit to read.
//   - revive: agent 1 then ships on the connection it kept, so it is
//     live, and waited for, again; the next interval closes complete.
//   - revive-backlog: agent 1's link stalls, so the root sees nothing
//     of it while agent 0 ships four intervals and they close without
//     it. Its backlog of those four frames then reaches the root late and
//     is dropped, but still shows agent 1 ships again: it is live, and
//     the fifth interval waits for it and closes complete.
func TestHoldTimeoutBoundsSilentAgent(t *testing.T) {
	cfg := gridtest.Config()
	trace := gridtest.Trace(5, 500, -1)
	// start has agent 0 ship the first three intervals past a silent
	// agent 1.
	start := func(t *testing.T) (root *host, a, silent *shipper) {
		root = serve(t, cfg, wire.CollectorConfig{Agents: 2, HoldTimeout: 200 * time.Millisecond})
		silent = newShipper(t, root, 1, 0)
		a = newShipper(t, root, 0, 0)
		for i := range 3 {
			returns(t, fmt.Sprintf("agent 0 ship %d", i), a.ship(trace[i], bnd(i)))
		}
		return root, a, silent
	}
	closes := func(t *testing.T, s *shipper) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- s.agent.Close() }()
		returns(t, "Close", done)
	}
	// ends checks the root's reports: the first partial ones name agent
	// 1 as missing, any later one none.
	ends := func(t *testing.T, root *host, reports, partial int) {
		t.Helper()
		if err := root.end(t); err != nil {
			t.Fatal(err)
		}
		if len(root.got) != reports {
			t.Fatalf("root emitted %d reports, want %d", len(root.got), reports)
		}
		for i, rep := range root.got {
			want := []int{1}
			if i >= partial {
				want = nil
			}
			if !slices.Equal(rep.Partial, want) {
				t.Errorf("interval %d: Partial %v, want %v", rep.Interval, rep.Partial, want)
			}
		}
	}
	t.Run("close", func(t *testing.T) {
		gridtest.NoLeak(t)
		root, a, _ := start(t)
		closes(t, a)
		ends(t, root, 3, 3)
	})
	t.Run("revive", func(t *testing.T) {
		gridtest.NoLeak(t)
		root, a, silent := start(t)
		eventually(t, "the root closes three intervals without agent 1", func() bool {
			m := root.metrics(t)
			return m.LastClosed == bnd(2) && m.Agents[1].Status == "dead"
		})
		returns(t, "agent 1 ship 3", silent.ship(trace[3], bnd(3)))
		eventually(t, "agent 1 live again", func() bool { return root.metrics(t).Agents[1].Status == "live" })
		returns(t, "agent 0 ship 3", a.ship(trace[3], bnd(3)))
		closes(t, a)
		closes(t, silent)
		ends(t, root, 4, 3)
	})
	t.Run("revive-backlog", func(t *testing.T) {
		gridtest.NoLeak(t)
		root := serve(t, cfg, wire.CollectorConfig{Agents: 2, HoldTimeout: 200 * time.Millisecond})
		link := &stalledConn{}
		silent := newShipperVia(t, root, 1, 0, func() (net.Conn, error) {
			conn, err := root.dial()
			link.Conn = conn
			return link, err
		})
		link.stall()
		t.Cleanup(func() { link.flush() })
		a := newShipper(t, root, 0, 0)
		for i := range 4 {
			returns(t, fmt.Sprintf("agent 0 ship %d", i), a.ship(trace[i], bnd(i)))
			returns(t, fmt.Sprintf("agent 1 ship %d into the stalled link", i), silent.ship(trace[i], bnd(i)))
		}
		eventually(t, "the root closes four intervals without agent 1", func() bool {
			m := root.metrics(t)
			return m.LastClosed == bnd(3) && m.Agents[1].Status == "dead"
		})
		if err := link.flush(); err != nil {
			t.Fatal(err)
		}
		eventually(t, "agent 1 live again", func() bool { return root.metrics(t).Agents[1].Status == "live" })
		returns(t, "agent 0 ship 4", a.ship(trace[4], bnd(4)))
		returns(t, "agent 1 ship 4", silent.ship(trace[4], bnd(4)))
		closes(t, a)
		closes(t, silent)
		ends(t, root, 5, 4)
	})
}

// stalledConn is an agent's link that can stall, as a hung process or a
// congested path does: while stalled it holds what the agent writes and
// what the agent would read. flush delivers the held writes, then lets
// the reads through.
type stalledConn struct {
	net.Conn
	mu      sync.Mutex
	held    []byte
	stalled chan struct{} // non-nil while stalled; flush closes it
}

func (c *stalledConn) stall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stalled = make(chan struct{})
}

func (c *stalledConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stalled != nil {
		c.held = append(c.held, p...)
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (c *stalledConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	stalled := c.stalled
	c.mu.Unlock()
	if stalled != nil {
		<-stalled
	}
	return n, err
}

func (c *stalledConn) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stalled == nil {
		return nil
	}
	_, err := c.Conn.Write(c.held)
	c.held = nil
	close(c.stalled)
	c.stalled = nil
	return err
}

// TestCheckpointedRootAcksAfterWrite pins the other commit point: a root
// with a checkpoint acks a boundary only once the checkpoint holding it
// is written.
//   - queued: with agent 1 silent, agent 0's queued frame is not acked,
//     so its next ship waits on a one-frame replay buffer; once agent 1
//     delivers, the boundary closes and the ack follows the write.
//   - failed-write: the checkpoint's directory is gone, so the first
//     write fails. Serve returns that error, and no agent is acked the
//     boundary, in the root's metrics or at the agent.
func TestCheckpointedRootAcksAfterWrite(t *testing.T) {
	cfg := gridtest.Config()
	trace := gridtest.Trace(2, 500, -1)
	t.Run("queued", func(t *testing.T) {
		gridtest.NoLeak(t)
		path := filepath.Join(t.TempDir(), "root.ckpt")
		root := serve(t, cfg, wire.CollectorConfig{Agents: 2, CheckpointPath: path})
		b := newShipper(t, root, 1, 0)
		a := newShipper(t, root, 0, 1)

		returns(t, "agent 0 ship 0", a.ship(trace[0], bnd(0)))
		eventually(t, "the root queues agent 0's frame", func() bool { return root.metrics(t).Agents[0].QueueDepth == 1 })
		next := a.ship(trace[1], bnd(1))
		select {
		case err := <-next:
			t.Fatalf("agent 0 ship 1 returned (%v) before the boundary it waits on was checkpointed", err)
		case <-time.After(50 * time.Millisecond):
		}
		if got, m := a.agent.Acked(), root.metrics(t).Agents[0].LastAcked; got != 0 || m != 0 {
			t.Fatalf("agent 0 acked %d (metrics %d) before any checkpoint was written", got, m)
		}

		returns(t, "agent 1 ship 0", b.ship(trace[0], bnd(0)))
		returns(t, "agent 0 ship 1 after the close", next)
		if got := a.agent.Acked(); got != bnd(0) {
			t.Errorf("agent 0 acked %d, want %d", got, bnd(0))
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("agent 0 acked with no checkpoint on disk: %v", err)
		}
		for _, s := range []*shipper{b, a} {
			if err := s.agent.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := root.end(t); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("failed-write", func(t *testing.T) {
		gridtest.NoLeak(t)
		dir := filepath.Join(t.TempDir(), "gone")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		root := serve(t, cfg, wire.CollectorConfig{Agents: 2, CheckpointPath: filepath.Join(dir, "root.ckpt")})
		if err := os.Remove(dir); err != nil {
			t.Fatal(err)
		}
		ships := []*shipper{newShipper(t, root, 0, 0), newShipper(t, root, 1, 0)}
		for id, s := range ships {
			returns(t, fmt.Sprintf("agent %d ship 0", id), s.ship(trace[id], bnd(0)))
		}
		if err := root.end(t); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Serve returned %v, want the failed checkpoint write", err)
		}
		m := root.metrics(t)
		for id, s := range ships {
			s.agent.Close() // the root is gone: the Bye cannot land
			if got, mm := s.agent.Acked(), m.Agents[id].LastAcked; got != 0 || mm != 0 {
				t.Errorf("agent %d acked %d (metrics %d) for a boundary whose checkpoint write failed", id, got, mm)
			}
		}
	})
}
