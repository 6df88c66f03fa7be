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
	"anomalyx/internal/gridtest"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// TestThreeTierMidRelayCrashResume kills the middle tier of a
// leaf→mid→top→root chain mid-session and restarts it from its
// checkpoint on a new address. The ack-after-upstream rule must hold
// through the extra tier: the leaves (barriered until the mid relay's
// checkpoint covers their first half) redial the replacement, it
// re-offers its held frames to the top relay, and the root's report
// stream is byte-identical to an undisturbed run with no boundary lost,
// duplicated, or flagged Partial.
func TestThreeTierMidRelayCrashResume(t *testing.T) {
	trace := gridtest.Trace(8, 2000, 6)
	cfg := gridtest.Config()
	parts := gridtest.Partition(trace, 2)
	const barrierAt = 4

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
				t.Errorf("interval %d flagged Partial %v across the mid-tier restart", rep.Interval, rep.Partial)
			}
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	topLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	top, err := wire.NewRelay(cfg, wire.RelayConfig{
		Children: 1,
		AgentID:  0,
		Parent:   rootLn.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	topErr := make(chan error, 1)
	go func() { topErr <- top.Serve(context.Background(), topLn) }()

	cpPath := filepath.Join(t.TempDir(), "mid.ckpt")
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var midAddr atomic.Value
	midAddr.Store(lnA.Addr().String())
	leafDialer := func() (net.Conn, error) {
		return net.Dial("tcp", midAddr.Load().(string))
	}

	midA, err := wire.NewRelay(cfg, wire.RelayConfig{
		Children:       2,
		AgentID:        0,
		Parent:         topLn.Addr().String(),
		CheckpointPath: cpPath,
		Retry:          fastRetry(41),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	serveA := make(chan error, 1)
	go func() { serveA <- midA.Serve(ctxA, lnA) }()

	// Leaves ship the first half, wait for the mid relay's durable ack
	// line to cover it, and hold at the barrier across the crash.
	atBarrier := make(chan struct{}, 2)
	resume := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			agent, err := wire.DialAgent(lnA.Addr().String(), id, cfg, wire.AgentOptions{
				Retry:  fastRetry(int64(50 + id)),
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
		t.Fatalf("mid relay A exited with %v, want context.Canceled", err)
	}
	midA.Close()

	// Restart: the replacement mid relay resumes from the checkpoint on a
	// new address, still parented on the (undisturbed) top relay.
	midB, err := wire.NewRelay(cfg, wire.RelayConfig{
		Children:       2,
		AgentID:        0,
		Parent:         topLn.Addr().String(),
		CheckpointPath: cpPath,
		Resume:         true,
		Retry:          fastRetry(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	midAddr.Store(lnB.Addr().String())
	serveB := make(chan error, 1)
	go func() { serveB <- midB.Serve(context.Background(), lnB) }()
	close(resume)
	wg.Wait()
	if err := <-serveB; err != nil {
		t.Fatalf("restarted mid relay: %v", err)
	}
	midB.Close()
	if err := <-topErr; err != nil {
		t.Fatalf("top relay: %v", err)
	}
	top.Close()
	if err := <-rootErr; err != nil {
		t.Fatalf("root collector: %v", err)
	}

	if len(got) != len(want) {
		t.Fatalf("crash+restart closed %d intervals, undisturbed run closed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: report differs across the mid-tier restart:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}
}
