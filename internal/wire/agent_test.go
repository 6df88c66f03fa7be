package wire

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"anomalyx/internal/core"
)

// TestAgentDropsMalformedAck: an Ack whose payload does not decode drops
// the connection, as a read error does, so the next ship redials and the
// HelloOK carries the line. A collector never sends a connection a line
// it already has, so an agent that skipped the Ack and kept the
// connection would wait for room in its one-frame replay buffer forever.
func TestAgentDropsMalformedAck(t *testing.T) {
	var dials atomic.Int32
	a, err := DialAgent("", 0, core.Config{}, AgentOptions{
		ReplayBuffer: 1,
		Retry:        RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		Dialer: func() (net.Conn, error) {
			conn, peer := net.Pipe()
			go pipeCollector(peer, dials.Add(1) == 1)
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	oi := agentInterval(t, 100)
	if err := a.ShipOpenInterval(900_000, oi); err != nil {
		t.Fatal(err)
	}
	shipped := make(chan error, 1)
	go func() { shipped <- a.ShipOpenInterval(1_800_000, oi) }()
	select {
	case err := <-shipped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		a.abort()
		t.Fatalf("the second ship still blocked after 5s, with %d dials and Acked %d", dials.Load(), a.Acked())
	}
	if n, acked := dials.Load(), a.Acked(); n != 2 || acked < 900_000 {
		t.Errorf("%d dials and Acked %d, want 2 dials and the first frame acked by the HelloOK", n, acked)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// pipeCollector plays a collector on one end of a pipe: a HelloOK, then
// an Ack per interval frame and a ByeOK for the Bye. On the first
// connection the HelloOK carries nothing and the Ack is one byte that
// does not decode; on a later one the HelloOK carries the frame the
// first connection delivered.
func pipeCollector(conn net.Conn, first bool) {
	defer conn.Close()
	br, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	if _, _, err := readFrame(br); err != nil {
		return
	}
	line := int64(900_000)
	if first {
		line = 0
	}
	typ, payload := byte(frameHelloOK), appendBoundary(nil, line)
	for {
		if writeFrame(w, typ, payload) != nil || w.Flush() != nil {
			return
		}
		t, frame, err := readFrame(br)
		switch {
		case err != nil:
			return
		case t == frameBye:
			typ, payload = frameByeOK, nil
		case first:
			typ, payload = frameAck, []byte{0x80}
		default:
			r := reader{buf: frame}
			typ, payload = frameAck, appendBoundary(nil, r.varint())
		}
	}
}
