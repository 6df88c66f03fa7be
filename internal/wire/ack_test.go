package wire_test

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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
	p, err := core.New(root.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	agent, err := wire.DialAgent("", id, root.cfg, wire.AgentOptions{
		Retry:        wire.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		ReplayBuffer: replay,
		Dialer:       root.dial,
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
