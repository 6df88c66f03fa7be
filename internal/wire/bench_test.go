package wire_test

import (
	"context"
	"net"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// BenchmarkLoopbackInterval measures the distributed interval close end
// to end over loopback TCP: two agents each drain and ship a ~2k-flow
// interval, the collector merges both snapshots in agent-ID order and
// closes detection. One benchmark iteration is one complete interval
// (submit, cut, ship, merge, detect), so ns/op is the added per-interval
// latency of running the shards on separate processes' sockets.
func BenchmarkLoopbackInterval(b *testing.B) {
	const agents = 2
	cfg := core.Config{} // paper defaults
	trace := gridtest.Trace(1, 4000, -1)[0]
	parts := make([][]flow.Record, agents)
	for i := range trace {
		parts[i%agents] = append(parts[i%agents], trace[i])
	}
	step := (15 * time.Minute).Milliseconds()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	coll, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: agents})
	if err != nil {
		b.Fatal(err)
	}
	defer coll.Close()
	reports := make(chan *core.Report, 16)
	serveErr := make(chan error, 1)
	go func() {
		defer close(reports)
		serveErr <- coll.Serve(context.Background(), ln, func(rep *core.Report) error {
			reports <- rep
			return nil
		})
	}()

	engines := make([]*engine.Engine, agents)
	agentConns := make([]*wire.Agent, agents)
	for id := 0; id < agents; id++ {
		a, err := wire.DialAgent(ln.Addr().String(), id, cfg, wire.AgentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sp, err := shard.New(shard.Config{Shards: 1, Pipeline: cfg})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.NewShipping(engine.Config{IntervalLen: 15 * time.Minute}, sp, a.ShipOpenInterval)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for range eng.Reports() {
			}
		}()
		engines[id] = eng
		agentConns[id] = a
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Shift every record into benchmark-interval i, so each iteration
		// fills exactly one grid interval; the next iteration's first
		// record cuts the previous one closed at both agents.
		for id, part := range parts {
			shifted := make([]flow.Record, len(part))
			for j, rec := range part {
				rec.Start = rec.Start%step + int64(i+1)*step
				rec.End = rec.Start
				shifted[j] = rec
			}
			if _, err := engines[id].SubmitBatch(shifted); err != nil {
				b.Fatal(err)
			}
		}
		if i > 0 {
			<-reports // the interval the cut just closed
		}
	}
	b.StopTimer()
	// Every engine ships its last interval before any agent says Bye: the
	// collector holds forever (HoldTimeout 0), so an agent whose peer has
	// not shipped would wait on its ByeOK forever.
	for _, eng := range engines {
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range agentConns {
		if err := a.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for range reports {
	}
	if err := <-serveErr; err != nil {
		b.Fatal(err)
	}
}
