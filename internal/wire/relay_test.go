package wire_test

import (
	"net"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/wire"
)

// rawFrameRelayInterval mirrors the wire package's unexported relay
// frame type, pinned as a wire-format fact like the rawFrame* set in
// wire_test.go.
const rawFrameRelayInterval = 9

// TestRelayRejectsMalformedChildFrame holds the fuzz target's promise
// at the session level: a child connection that delivers a malformed
// relay frame is dropped without wedging the relay or propagating
// anything upstream, and a well-formed agent can then take over the
// same child slot and complete the stream.
func TestRelayRejectsMalformedChildFrame(t *testing.T) {
	gridtest.NoLeak(t)
	trace := gridtest.Trace(4, 1500, 2)
	cfg := gridtest.Config()

	// Reference over the whole trace (the single leaf carries it all).
	single, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want := make([]*core.Report, len(trace))
	for i, recs := range trace {
		if want[i], err = single.ProcessInterval(recs); err != nil {
			t.Fatal(err)
		}
	}

	root := serve(t, cfg, wire.CollectorConfig{Agents: 1})
	relay := &host{cfg: cfg, cc: wire.CollectorConfig{Agents: 1}, rc: &wire.RelayConfig{Dialer: root.dial}}
	relay.start(t)

	// A hand-rolled connection handshakes correctly, then sends a relay
	// frame whose payload is garbage.
	conn, err := relay.dial()
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 3, 0, 0, wire.ConfigDigest(cfg)))
	typ, _, err := readRawFrame(conn)
	if err != nil || typ != rawFrameHelloOK {
		t.Fatalf("handshake reply: type %d err %v", typ, err)
	}
	writeRawFrame(t, conn, rawFrameRelayInterval, []byte{0x80, 0xff, 0x03, 0x01, 0x02})
	// The relay must sever the connection (a hang here fails on the test
	// timeout); acks may arrive first, nothing else will.
	drainUntilClosed(conn)
	conn.Close()

	// A legitimate agent takes over the slot and delivers the stream.
	leaf{shards: 1, part: trace, dial: relay.dial}.run(t, cfg)

	if err := relay.end(t); err != nil {
		t.Fatalf("relay: %v", err)
	}
	if err := root.end(t); err != nil {
		t.Fatalf("root: %v", err)
	}
	gridtest.Equal(t, root.got, want, 1)
}

// drainUntilClosed reads conn until the peer severs it (EOF or reset).
func drainUntilClosed(conn net.Conn) {
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// TestNewRelayValidation pins the relay constructor's contract: the
// rejections, DialAgent's for the relay's upstream face, the derived
// LeafBase numbering, and the metrics surface.
// The rows with a bad child-facing configuration are NewCollector's
// rejections, checked once for both constructors.
func TestNewRelayValidation(t *testing.T) {
	cfg := gridtest.Config()
	for _, tc := range []struct {
		name      string
		rc        wire.RelayConfig
		collector bool // the Collector field alone is at fault
	}{
		{"zero children", wire.RelayConfig{Parent: "h:1"}, true},
		{"negative agent ID", wire.RelayConfig{Collector: wire.CollectorConfig{Agents: 1}, AgentID: -1, Parent: "h:1"}, false},
		{"no parent", wire.RelayConfig{Collector: wire.CollectorConfig{Agents: 1}}, false},
		{"resume without checkpoint", wire.RelayConfig{Collector: wire.CollectorConfig{Agents: 1, Resume: true}, Parent: "h:1"}, true},
		{"leaf span too wide", wire.RelayConfig{Collector: wire.CollectorConfig{Agents: 2}, Parent: "h:1", LeafBase: 1 << 20}, false},
		{"negative leaf base", wire.RelayConfig{Collector: wire.CollectorConfig{Agents: 2}, Parent: "h:1", LeafBase: -1}, false},
		{"missing checkpoint file", wire.RelayConfig{
			Collector: wire.CollectorConfig{Agents: 1, Resume: true, CheckpointPath: "no/such/checkpoint"}, Parent: "h:1",
		}, true},
		{"negative hold timeout", wire.RelayConfig{
			Collector: wire.CollectorConfig{Agents: 1, HoldTimeout: -time.Second}, Parent: "h:1",
		}, true},
	} {
		if _, err := wire.NewRelay(cfg, tc.rc); err == nil {
			t.Errorf("%s: relay accepted", tc.name)
		}
		if !tc.collector {
			continue
		}
		if coll, err := wire.NewCollector(cfg, tc.rc.Collector); err == nil {
			coll.Close()
			t.Errorf("%s: collector accepted", tc.name)
		}
	}

	// A relay's upstream face is an agent: DialAgent refuses what it
	// cannot run, though a collector is there to take the connection.
	root := serve(t, cfg, wire.CollectorConfig{Agents: 1})
	for _, tc := range []struct {
		name         string
		id, buffered int
	}{
		{"negative agent ID", -1, 0},
		{"negative replay buffer", 0, -1},
	} {
		opts := wire.AgentOptions{ReplayBuffer: tc.buffered, Dialer: root.dial}
		if agent, err := wire.DialAgent("", tc.id, cfg, opts); err == nil {
			agent.Close()
			t.Errorf("%s: agent accepted", tc.name)
		}
	}

	rel, err := wire.NewRelay(cfg, wire.RelayConfig{Collector: wire.CollectorConfig{Agents: 2}, AgentID: 1, Parent: "h:1"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Metrics() == nil {
		t.Error("relay has no metrics surface")
	}
	rel.Close()
}
