package wire_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// runAgent drives one agent over its partition of the trace: a local
// pipeline of localShards partitions behind a shipping engine that
// drains and ships every interval. The partition is submitted in
// interval order, 512 records at a time, mirroring a collector socket
// replaying its slice of the traffic.
func runAgent(t *testing.T, addr string, id, localShards int, cfg core.Config, part [][]flow.Record, opts wire.AgentOptions) {
	t.Helper()
	agent, err := wire.DialAgent(addr, id, cfg, opts)
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
	eng, err := engine.NewShipping(engine.Config{IntervalLen: gridtest.IntervalLen}, sp, agent.ShipOpenInterval)
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
			if _, err := eng.SubmitBatch(recs[j:min(j+512, len(recs))]); err != nil {
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

// topology is a collector tree given by its fan-outs from the root: {4}
// is a collector over four agents, {2, 2} a root over two relays of two
// agents each, {1, 2, 2} a root over one relay over two relays of two
// agents each.
type topology []int

// leaves returns the number of agents at the bottom of the tree.
func (tp topology) leaves() int {
	n := 1
	for _, f := range tp {
		n *= f
	}
	return n
}

// listen opens a loopback listener.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// runTopology serves the tree tp on loopback TCP, runs leaf i (numbered
// depth first) over parts[i] — leaf 0 on shards0 local partitions, the
// others on one — and returns the root's reports once every tier has
// ended.
func runTopology(t *testing.T, cfg core.Config, tp topology, parts [][][]flow.Record, shards0 int) []*core.Report {
	t.Helper()
	ln := listen(t)
	root, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: tp[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var got []*core.Report
	rootErr := make(chan error, 1)
	go func() {
		rootErr <- root.Serve(context.Background(), ln, func(rep *core.Report) error {
			got = append(got, rep)
			return nil
		})
	}()

	var wg sync.WaitGroup
	var relays []*wire.Relay
	var spawn func(addr string, tp topology, leaf0 int)
	spawn = func(addr string, tp topology, leaf0 int) {
		for c := range tp[0] {
			wg.Add(1)
			if len(tp) == 1 {
				leaf, shards := leaf0+c, 1
				if leaf == 0 {
					shards = shards0
				}
				go func() {
					defer wg.Done()
					runAgent(t, addr, c, shards, cfg, parts[leaf], wire.AgentOptions{})
				}()
				continue
			}
			rln := listen(t)
			rel, err := wire.NewRelay(cfg, wire.RelayConfig{Children: tp[1], AgentID: c, Parent: addr})
			if err != nil {
				t.Fatal(err)
			}
			relays = append(relays, rel)
			go func() {
				defer wg.Done()
				if err := rel.Serve(context.Background(), rln); err != nil {
					t.Errorf("relay: %v", err)
				}
			}()
			spawn(rln.Addr().String(), tp[1:], leaf0+c*tp[1:].leaves())
		}
	}
	spawn(ln.Addr().String(), tp, 0)
	// Ends cascade tier by tier: leaves Bye their relays, whose Serves
	// return after Byeing their parents, up to the root.
	wg.Wait()
	for _, rel := range relays {
		rel.Close()
	}
	if err := <-rootErr; err != nil {
		t.Fatalf("root collector: %v", err)
	}
	return got
}

// TestGrid is the determinism contract across the wire in one table: the
// grid trace, hash-partitioned over the leaves of a collector tree as an
// in-process run partitions it, must come out of the root as exactly the
// reports of gridtest.Reference over the same records, with no interval
// flagged Partial and no goroutine left behind. The rows are the
// topologies {2}, {4}, {2, 2} and {1, 2, 2} × leaf 0 on {1, 2} local
// partitions; and {2} and {2, 2} with leaf 0 silent for the first two
// intervals (it seeds its grid late) and the last leaf for the last two
// (it Byes early), against the reference over the records they ship:
// the root lines every interval up by absolute boundary.
func TestGrid(t *testing.T) {
	trace := gridtest.Trace(10, 1500, 8)
	cfg := gridtest.Config()
	want := gridtest.Reference(t, cfg, trace)
	for _, tp := range []topology{{2}, {4}, {2, 2}, {1, 2, 2}} {
		parts := gridtest.Partition(trace, tp.leaves())
		for _, shards0 := range []int{1, 2} {
			t.Run(fmt.Sprintf("topology=%v/leaf0-shards=%d", tp, shards0), func(t *testing.T) {
				gridtest.NoLeak(t)
				gridtest.Equal(t, runTopology(t, cfg, tp, parts, shards0), want, tp.leaves())
			})
		}
	}
	for _, tp := range []topology{{2}, {2, 2}} {
		parts := gridtest.Partition(trace, tp.leaves())
		last := len(parts) - 1
		shipped := make([][]flow.Record, len(trace))
		for i := range trace {
			if i < 2 {
				parts[0][i] = nil
			}
			if i >= len(trace)-2 {
				parts[last][i] = nil
			}
			for _, part := range parts {
				shipped[i] = append(shipped[i], part[i]...)
			}
		}
		t.Run(fmt.Sprintf("topology=%v/late-and-early", tp), func(t *testing.T) {
			gridtest.NoLeak(t)
			gridtest.Equal(t, runTopology(t, cfg, tp, parts, 2), gridtest.Reference(t, cfg, shipped), tp.leaves())
		})
	}
}
