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

// runAgent drives one agent over its partition of the trace: a local
// sharded pipeline behind a shipping engine that drains and ships every
// interval to the collector. The partition is submitted in
// interval order, mirroring a collector socket replaying its slice of
// the traffic.
func runAgent(t *testing.T, addr string, id, localShards int, cfg core.Config, part [][]flow.Record) {
	t.Helper()
	agent, err := wire.DialAgent(addr, id, cfg, wire.AgentOptions{})
	if err != nil {
		t.Errorf("agent %d: dial: %v", id, err)
		return
	}
	sp, err := shard.New(shard.Config{Shards: localShards, Pipeline: cfg})
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
	// Drain the local stub reports; detection happens at the collector.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range eng.Reports() {
		}
	}()
	for _, recs := range part {
		for j := 0; j < len(recs); j += 512 {
			end := min(j+512, len(recs))
			if _, err := eng.SubmitBatch(recs[j:end]); err != nil {
				t.Errorf("agent %d: submit: %v", id, err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Errorf("agent %d: engine close: %v", id, err)
	}
	<-drained
	// Bye must trail the final flushed snapshot, so close the agent
	// after the engine.
	if err := agent.Close(); err != nil {
		t.Errorf("agent %d: close: %v", id, err)
	}
}

// TestDistributedCollector is the tentpole end-to-end check: N agents
// on loopback TCP, each running a locally sharded pipeline over a
// hash partition of the trace, ship per-interval snapshots to a
// collector — and the collector's reports are byte-identical to a
// single process running the same N partitions as in-process shards
// (which the shard package's own tests tie to the plain unsharded
// pipeline). Verified for N ∈ {2, 4}; agent 0 additionally runs 2
// local shards to cover the merged local drain.
func TestDistributedCollector(t *testing.T) {
	trace := testTrace(10, 3000, 8)
	cfg := testPipelineConfig()

	for _, agents := range []int{2, 4} {
		// Reference: a single-process N-shard run over the same records.
		ref, err := shard.New(shard.Config{Shards: agents, Pipeline: cfg})
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

		// Partition the trace exactly as the in-process shards do.
		parts := make([][][]flow.Record, agents)
		for id := range parts {
			parts[id] = make([][]flow.Record, len(trace))
		}
		for i, recs := range trace {
			for j := range recs {
				id := ref.ShardOf(&recs[j])
				parts[id][i] = append(parts[id][i], recs[j])
			}
		}

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coll, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: agents})
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

		var wg sync.WaitGroup
		for id := 0; id < agents; id++ {
			localShards := 1
			if id == 0 {
				localShards = 2 // cover the locally-sharded drain path too
			}
			wg.Add(1)
			go func(id, localShards int) {
				defer wg.Done()
				runAgent(t, ln.Addr().String(), id, localShards, cfg, parts[id])
			}(id, localShards)
		}
		wg.Wait()
		if err := <-serveErr; err != nil {
			t.Fatalf("agents=%d: collector: %v", agents, err)
		}
		ln.Close()
		coll.Close()

		if len(got) != len(want) {
			t.Fatalf("agents=%d: collector closed %d intervals, single-process run closed %d",
				agents, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("agents=%d interval %d: collector report differs from single-process N-shard run:\n got %s\nwant %s",
					agents, i, got[i], want[i])
			}
		}
	}
}

// TestDistributedLateAndEarlyAgents covers boundary keying: one agent's
// partition is withheld from the first two intervals and another's from
// the last two, so the agents seed their grids at different wall times
// and finish at different boundaries. The collector must still line the
// intervals up by absolute boundary and match a single-process run over
// the union of the partitions.
func TestDistributedLateAndEarlyAgents(t *testing.T) {
	trace := testTrace(8, 2000, 6)
	cfg := testPipelineConfig()

	// Build the two partitions first: agent 0 misses intervals 0-1,
	// agent 1 misses the last two.
	ref, err := shard.New(shard.Config{Shards: 2, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][][]flow.Record, 2)
	for id := range parts {
		parts[id] = make([][]flow.Record, len(trace))
	}
	for i, recs := range trace {
		for j := range recs {
			id := ref.ShardOf(&recs[j])
			if (id == 0 && i < 2) || (id == 1 && i >= len(trace)-2) {
				continue
			}
			parts[id][i] = append(parts[id][i], recs[j])
		}
	}
	ref.Close()

	// Reference: a single pipeline over the union, interval for
	// interval.
	single, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want := make([]string, 0, len(trace))
	for i := range trace {
		for id := range parts {
			single.ObserveBatch(parts[id][i])
		}
		rep, err := single.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, renderReport(rep))
	}

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
			got = append(got, renderReport(rep))
			return nil
		})
	}()
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		// Drop the withheld (empty) leading intervals entirely: the late
		// agent's engine must seed its grid at its first real record.
		part := parts[id]
		for len(part) > 0 && len(part[0]) == 0 {
			part = part[1:]
		}
		wg.Add(1)
		go func(id int, part [][]flow.Record) {
			defer wg.Done()
			runAgent(t, ln.Addr().String(), id, 1, cfg, part)
		}(id, part)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("collector: %v", err)
	}
	ln.Close()

	if len(got) != len(want) {
		t.Fatalf("collector closed %d intervals, single-process run closed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: collector report differs from single-process run:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}
}
