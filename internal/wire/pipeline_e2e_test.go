package wire_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// TestDistributedPipelinedAgents pins the pipelined close against the
// wire: the agents' shipping engines close inline (depth 1 — they have
// no detection to defer), and the collector's merged reports must be
// byte-identical to a local pipelined engine (same shard count, depth 3)
// consuming the whole trace in one process. This ties all three closing
// modes together: local sync, local pipelined, and distributed.
func TestDistributedPipelinedAgents(t *testing.T) {
	const agents = 2
	trace := testTrace(10, 3000, 8)
	cfg := testPipelineConfig()

	// Reference: a local pipelined engine sharded the same way the
	// agents partition the trace.
	ref, err := engine.New(engine.Config{
		Pipeline: cfg, Shards: agents, IntervalLen: 15 * time.Minute, PipelineDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	alarmed := false
	refDone := make(chan struct{})
	go func() {
		defer close(refDone)
		for rep := range ref.Reports() {
			want = append(want, renderReport(rep))
			alarmed = alarmed || rep.Alarm
		}
	}()
	for _, recs := range trace {
		if _, err := ref.SubmitBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	<-refDone
	if !alarmed {
		t.Fatal("pipelined reference run never alarmed; the test would not cover extraction")
	}

	// Partition the trace exactly as the sharded reference does.
	sp, err := shard.New(shard.Config{Shards: agents, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][][]flow.Record, agents)
	for id := range parts {
		parts[id] = make([][]flow.Record, len(trace))
	}
	for i, recs := range trace {
		for j := range recs {
			id := sp.ShardOf(&recs[j])
			parts[id][i] = append(parts[id][i], recs[j])
		}
	}
	sp.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coll, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: agents})
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

	var wg sync.WaitGroup
	for id := 0; id < agents; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runAgent(t, ln.Addr().String(), id, 1, cfg, parts[id])
		}(id)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("collector: %v", err)
	}
	ln.Close()

	if len(got) != len(want) {
		t.Fatalf("collector closed %d intervals, pipelined local run closed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: collector report differs from local pipelined run:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}
}
