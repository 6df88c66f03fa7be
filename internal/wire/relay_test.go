package wire_test

import (
	"context"
	"net"
	"testing"

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
	trace := gridtest.Trace(4, 1500, 2)
	cfg := gridtest.Config()

	// Reference over the whole trace (the single leaf carries it all).
	single, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want := make([]string, 0, len(trace))
	for _, recs := range trace {
		single.ObserveBatch(recs)
		rep, err := single.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, renderReport(rep))
	}

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
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := wire.NewRelay(cfg, wire.RelayConfig{
		Children: 1,
		AgentID:  0,
		Parent:   rootLn.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	relayErr := make(chan error, 1)
	go func() { relayErr <- rel.Serve(context.Background(), relayLn) }()

	// A hand-rolled connection handshakes correctly, then sends a relay
	// frame whose payload is garbage.
	conn, err := net.Dial("tcp", relayLn.Addr().String())
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
	runAgent(t, relayLn.Addr().String(), 0, 1, cfg, trace, wire.AgentOptions{})

	if err := <-relayErr; err != nil {
		t.Fatalf("relay: %v", err)
	}
	rel.Close()
	if err := <-rootErr; err != nil {
		t.Fatalf("root: %v", err)
	}

	if len(got) != len(want) {
		t.Fatalf("root closed %d intervals, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: report differs after malformed-frame recovery:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
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
// rejections, the derived LeafBase numbering, and the metrics surface.
func TestNewRelayValidation(t *testing.T) {
	cfg := gridtest.Config()
	for _, tc := range []struct {
		name string
		rc   wire.RelayConfig
	}{
		{"zero children", wire.RelayConfig{Children: 0, Parent: "h:1"}},
		{"negative agent ID", wire.RelayConfig{Children: 1, AgentID: -1, Parent: "h:1"}},
		{"no parent", wire.RelayConfig{Children: 1}},
		{"resume without checkpoint", wire.RelayConfig{Children: 1, Parent: "h:1", Resume: true}},
		{"leaf span too wide", wire.RelayConfig{Children: 2, Parent: "h:1", LeafBase: 1 << 20}},
		{"negative leaf base", wire.RelayConfig{Children: 2, Parent: "h:1", LeafBase: -1}},
		{"missing checkpoint file", wire.RelayConfig{
			Children: 1, Parent: "h:1", Resume: true, CheckpointPath: "no/such/checkpoint",
		}},
	} {
		if _, err := wire.NewRelay(cfg, tc.rc); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	rel, err := wire.NewRelay(cfg, wire.RelayConfig{Children: 2, AgentID: 1, Parent: "h:1"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Metrics() == nil {
		t.Error("relay has no metrics surface")
	}
	rel.Close()
}
