package wire_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/histogram"
	"anomalyx/internal/wire"
)

// TestDrainAbsorbEquivalence pins the agent-side primitive: draining a
// pipeline's open interval, pushing it through the exported
// open-interval codec and absorbing the decoded interval into a second
// pipeline leaves the second exactly as if it had observed the flows
// itself, and leaves the drained pipeline empty.
func TestDrainAbsorbEquivalence(t *testing.T) {
	trace := gridtest.Trace(6, 1500, 4)
	cfg := gridtest.Config()

	direct, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	primary, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	agent, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	for _, recs := range trace {
		direct.ObserveBatch(recs)
		agent.ObserveBatch(recs)

		frame, err := wire.EncodeOpenIntervalSnapshot(pipelineSnapshotOf(agent.DrainOpenInterval()))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := wire.DecodeOpenIntervalSnapshot(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := primary.AbsorbOpenInterval(openIntervalOf(dec)); err != nil {
			t.Fatal(err)
		}

		wantRep, err := direct.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := primary.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		gridtest.Equal(t, []*core.Report{gotRep}, []*core.Report{wantRep}, 1)
	}
	// The drained agent must be empty: closing its interval reports no
	// flows.
	rep, err := agent.EndInterval()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFlows != 0 {
		t.Fatalf("drained pipeline still buffers %d flows", rep.TotalFlows)
	}
}

// wireCodecVersion mirrors the wire package's unexported frame codec
// version, the first byte of an EncodeOpenIntervalSnapshot payload.
const wireCodecVersion = 2

// TestDecodeRejects exercises the open-interval codec's corruption
// handling: version mismatches, truncation, trailing bytes and
// non-minimal varints must all fail cleanly.
func TestDecodeRejects(t *testing.T) {
	p, err := core.New(gridtest.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ObserveBatch(gridtest.Trace(1, 200, 0)[0])
	enc, err := wire.EncodeOpenIntervalSnapshot(pipelineSnapshotOf(p.DrainOpenInterval()))
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != wireCodecVersion {
		t.Fatalf("payload starts with version %d, want %d", enc[0], wireCodecVersion)
	}

	if _, err := wire.DecodeOpenIntervalSnapshot(nil); err == nil {
		t.Error("decoding empty input succeeded")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := wire.DecodeOpenIntervalSnapshot(bad); err == nil {
		t.Error("decoding a wrong codec version succeeded")
	}
	if _, err := wire.DecodeOpenIntervalSnapshot(enc[:len(enc)/2]); err == nil {
		t.Error("decoding truncated input succeeded")
	}
	if _, err := wire.DecodeOpenIntervalSnapshot(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("decoding input with trailing bytes succeeded")
	}
	// Non-minimal varints (0x80 0x00 encodes 0 in two bytes) must be
	// rejected: the codec is canonical, so decode accepts exactly what
	// encode produces. Here it is the detector count, after a valid
	// version byte; the minimal form {version, 0, 0} is an empty interval.
	if _, err := wire.DecodeOpenIntervalSnapshot([]byte{wireCodecVersion, 0, 0}); err != nil {
		t.Errorf("decoding the empty interval failed: %v", err)
	}
	if _, err := wire.DecodeOpenIntervalSnapshot([]byte{wireCodecVersion, 0x80, 0x00, 0x00}); err == nil ||
		!strings.Contains(err.Error(), "non-minimal") {
		t.Errorf("decoding a non-minimal uvarint: %v, want the non-minimal error", err)
	}
}

// withBinValues returns a copy of s whose detector-0 clones each have
// the bin holding value v (or, for v < 0, the first bin with two values)
// rewritten by edit; every other bin is shared with s.
func withBinValues(s core.PipelineSnapshot, v int64, edit func([]histogram.ValueCount) []histogram.ValueCount) core.PipelineSnapshot {
	out := s
	out.Bank.Detectors = append([]detector.Snapshot(nil), s.Bank.Detectors...)
	ds := &out.Bank.Detectors[0]
	ds.Clones = append([]histogram.Snapshot(nil), ds.Clones...)
	for c := range ds.Clones {
		hs := &ds.Clones[c]
		hs.Values = append([][]histogram.ValueCount(nil), hs.Values...)
		for b, vs := range hs.Values {
			if (v < 0 && len(vs) >= 2) || (v >= 0 && slices.ContainsFunc(vs, func(vc histogram.ValueCount) bool { return vc.Value == uint64(v) })) {
				hs.Values[b] = edit(slices.Clone(vs))
				break
			}
		}
	}
	return out
}

// TestDecodeRejectsNonCanonicalHistogramValues: a bin whose values repeat
// or descend is bytes the encoder never writes, and the open-interval
// decoder refuses it, naming the byte. Both payloads keep every clone's
// totals and entry counts consistent, so only the value order gives
// them away — without the check, a repeat decoded, counted twice toward
// the Total it was validated against, and absorbed into a table holding
// it once: an interval that re-drained differently.
func TestDecodeRejectsNonCanonicalHistogramValues(t *testing.T) {
	cfg := gridtest.Config()
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ObserveBatch(gridtest.Trace(1, 400, -1)[0])
	snap := pipelineSnapshotOf(p.DrainOpenInterval())
	// A source address seen at least twice: split its entry in two.
	heavy := int64(-1)
	for _, vs := range snap.Bank.Detectors[0].Clones[0].Values {
		for _, vc := range vs {
			if vc.Count >= 2 {
				heavy = int64(vc.Value)
			}
		}
	}
	if heavy < 0 {
		t.Fatal("no value observed twice")
	}
	cases := map[string]core.PipelineSnapshot{
		"repeated value": withBinValues(snap, heavy, func(vs []histogram.ValueCount) []histogram.ValueCount {
			i := slices.IndexFunc(vs, func(vc histogram.ValueCount) bool { return vc.Value == uint64(heavy) })
			vs[i].Count--
			return slices.Insert(vs, i, histogram.ValueCount{Value: vs[i].Value, Count: 1})
		}),
		"descending values": withBinValues(snap, -1, func(vs []histogram.ValueCount) []histogram.ValueCount {
			vs[0], vs[1] = vs[1], vs[0]
			return vs
		}),
	}
	for name, bad := range cases {
		frame, err := wire.EncodeOpenIntervalSnapshot(bad)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := wire.DecodeOpenIntervalSnapshot(frame)
		if err == nil {
			absorbed, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer absorbed.Close()
			err = absorbed.AbsorbOpenInterval(openIntervalOf(dec))
			t.Errorf("%s: decoded; absorb error %v, re-drains equal: %v",
				name, err, reflect.DeepEqual(pipelineSnapshotOf(absorbed.DrainOpenInterval()), dec))
			continue
		}
		if !strings.Contains(err.Error(), "strictly ascending") || !strings.Contains(err.Error(), "at byte") {
			t.Errorf("%s: error %q does not name the order violation and its position", name, err)
		}
	}
}

// --- raw-stream helpers for the error-path tests ---
//
// These speak the wire protocol byte-for-byte, independent of the
// Agent implementation, so malformed streams can be crafted exactly.

// Protocol constants mirrored from the wire package (which keeps them
// unexported); the error-path tests pin them as wire-format facts.
const (
	rawFrameHello        = 1
	rawFrameSnapshot     = 2 // reserved; rejected
	rawFrameBye          = 3
	rawFrameOpenInterval = 4
	rawFrameHelloOK      = 6
	rawFrameError        = 7
	rawFrameByeOK        = 8
)

// writeRawFrame writes one length-prefixed frame: uint32 big-endian
// payload length including the type byte, the type byte, the payload.
func writeRawFrame(t *testing.T, w io.Writer, typ byte, payload []byte) {
	t.Helper()
	hdr := make([]byte, 5, 5+len(payload))
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(append(hdr, payload...)); err != nil {
		t.Fatalf("writing raw frame: %v", err)
	}
}

// readRawFrame reads one frame off a raw connection.
func readRawFrame(conn io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > 1<<30 {
		return 0, nil, fmt.Errorf("frame length %d out of range", n)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// rawHello builds a Hello payload: magic, uvarint version and agent ID,
// from v3 the zigzag-varint resume offset, from v4 a plain agent's empty
// leaf span (two zero uvarints), and the trailing 8-byte digest.
func rawHello(magic string, version, agentID uint64, resume int64, digest uint64) []byte {
	p := []byte(magic)
	p = binary.AppendUvarint(p, version)
	p = binary.AppendUvarint(p, agentID)
	if version >= 3 {
		p = binary.AppendVarint(p, resume)
	}
	if version >= 4 {
		p = append(p, 0, 0)
	}
	return binary.LittleEndian.AppendUint64(p, digest)
}

// TestCollectorRejectsMalformedStreams drives the collector's framing
// and handshake error paths over real connections: each malformed
// stream must be rejected — with a typed frameError reply where the
// protocol defines one, a silent close otherwise — WITHOUT killing the
// session, which a well-behaved agent then finishes normally.
func TestCollectorRejectsMalformedStreams(t *testing.T) {
	cfg := gridtest.Config()
	digest := wire.ConfigDigest(cfg)

	cases := []struct {
		name string
		// send writes the malformed bytes; it returns true when a
		// frameError reply is expected (vs a silent connection close).
		send     func(t *testing.T, conn net.Conn)
		wantCode uint64
		wantMsg  string
		silent   bool
	}{
		{
			name: "hello protocol version too old",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 1, 0, 0, digest))
			},
			wantCode: 3, // errCodeBadVersion
			wantMsg:  "unsupported protocol version 1",
		},
		{
			name: "hello protocol version 3",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 3, 0, 0, digest))
			},
			wantCode: 3,
			wantMsg:  "unsupported protocol version 3 (want 4..4)",
		},
		{
			name: "hello protocol version too new",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 99, 0, 0, digest))
			},
			wantCode: 3,
			wantMsg:  "unsupported protocol version 99",
		},
		{
			name: "hello bad magic",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("NOPE", 4, 0, 0, digest))
			},
			wantCode: 0, // errCodeOther
			wantMsg:  "bad hello magic",
		},
		{
			name: "hello config digest mismatch",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 4, 0, 0, digest+1))
			},
			wantCode: 1, // errCodeConfigMismatch
			wantMsg:  "config mismatch: agent=",
		},
		{
			name: "hello agent ID out of range",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 4, 5, 0, digest))
			},
			wantCode: 2, // errCodeBadAgentID
			wantMsg:  "out of range",
		},
		{
			name: "truncated frame",
			send: func(t *testing.T, conn net.Conn) {
				// A header promising 64 payload bytes, then only 3 and EOF.
				hdr := []byte{0, 0, 0, 64, rawFrameHello, 'A', 'X', 'W'}
				if _, err := conn.Write(hdr); err != nil {
					t.Fatal(err)
				}
				conn.(*net.TCPConn).CloseWrite()
			},
			silent: true,
		},
		{
			name: "oversized frame",
			send: func(t *testing.T, conn net.Conn) {
				// Length 1 GiB + 1: over maxFrameLen, rejected at the header.
				if _, err := conn.Write([]byte{0x40, 0, 0, 1, rawFrameHello}); err != nil {
					t.Fatal(err)
				}
			},
			silent: true,
		},
		{
			name: "hello header claiming 512 MiB",
			send: func(t *testing.T, conn net.Conn) {
				// Five bytes and nothing more: a control frame's length is
				// checked against its own small bound before anything is
				// allocated or awaited, so the collector hangs up at once
				// instead of reserving half a gigabyte for a stranger.
				if _, err := conn.Write([]byte{0x20, 0, 0, 0, rawFrameHello}); err != nil {
					t.Fatal(err)
				}
			},
			silent: true,
		},
		{
			name: "reserved type-2 frame after a good handshake",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 4, 0, 0, digest))
				if typ, _, err := readRawFrame(conn); err != nil || typ != rawFrameHelloOK {
					t.Fatalf("hello reply: type %d, err %v; want HelloOK", typ, err)
				}
				// The retired full-snapshot frame type a pre-v3 agent
				// shipped each interval. The type alone decides: whatever
				// the payload (here a boundary and an empty open interval),
				// no collector absorbs it any more. The connection is
				// refused with an Error reply, which ends the agent's
				// stream instead of inviting a replay; the session goes on.
				payload := binary.AppendVarint(nil, 900_000)
				payload = append(payload, wireCodecVersion, 0, 0)
				writeRawFrame(t, conn, rawFrameSnapshot, payload)
			},
			wantCode: 0, // errCodeOther
			wantMsg:  "unexpected frame type 2",
		},
		{
			name: "zero-length frame",
			send: func(t *testing.T, conn net.Conn) {
				if _, err := conn.Write([]byte{0, 0, 0, 0, 0}); err != nil {
					t.Fatal(err)
				}
			},
			silent: true,
		},
		{
			name: "first frame not hello",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameBye, nil)
			},
			silent: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coll := serve(t, cfg, wire.CollectorConfig{Agents: 1})
			conn, err := coll.dial()
			if err != nil {
				t.Fatal(err)
			}
			tc.send(t, conn)
			if tc.silent {
				// The collector must close the connection without a reply.
				if typ, _, err := readRawFrame(conn); err == nil {
					t.Fatalf("expected silent close, got frame type %d", typ)
				}
			} else {
				typ, payload, err := readRawFrame(conn)
				if err != nil {
					t.Fatalf("reading rejection reply: %v", err)
				}
				if typ != rawFrameError {
					t.Fatalf("reply frame type = %d, want %d (error)", typ, rawFrameError)
				}
				code, n := binary.Uvarint(payload)
				if n <= 0 {
					t.Fatalf("malformed error payload % x", payload)
				}
				if code != tc.wantCode {
					t.Errorf("error code = %d, want %d", code, tc.wantCode)
				}
				if msg := string(payload[n:]); !strings.Contains(msg, tc.wantMsg) {
					t.Errorf("error message %q does not contain %q", msg, tc.wantMsg)
				}
			}
			conn.Close()

			// The rejection must not have hurt the session: a well-behaved
			// agent connects, ends cleanly, and the session closes with the
			// empty-stream parity report.
			agent, err := wire.DialAgent("", 0, cfg, wire.AgentOptions{Dialer: coll.dial})
			if err != nil {
				t.Fatalf("well-behaved agent after rejection: %v", err)
			}
			if err := agent.Close(); err != nil {
				t.Fatalf("well-behaved agent close: %v", err)
			}
			if err := coll.end(t); err != nil {
				t.Fatalf("collector: %v", err)
			}
			if n := len(coll.got); n != 1 {
				t.Fatalf("session emitted %d reports, want 1 parity report", n)
			}
		})
	}
}

// corruptingConn flips the last byte of every interval frame the agent
// writes, whatever the Write calls' split of the byte stream.
type corruptingConn struct {
	net.Conn
	hdr  []byte // header bytes of the next frame seen so far
	typ  byte   // type of the frame being written
	left int    // bytes of that frame's payload still to come
}

func (c *corruptingConn) Write(p []byte) (int, error) {
	q := slices.Clone(p)
	for i, b := range q {
		if c.left == 0 {
			if c.hdr = append(c.hdr, b); len(c.hdr) == 5 {
				c.left, c.typ = int(binary.BigEndian.Uint32(c.hdr))-1, c.hdr[4]
				c.hdr = c.hdr[:0]
			}
			continue
		}
		if c.left--; c.left == 0 && c.typ == rawFrameOpenInterval {
			q[i] ^= 0xff
		}
	}
	return c.Conn.Write(q)
}

// TestAgentRefusedFrameEndsStream pins the answer to a frame the
// collector refuses after the handshake: an Error reply, which the
// agent takes as permanent. A silent close would have the agent redial,
// pass the handshake with a fresh retry budget and replay the same
// frame forever.
func TestAgentRefusedFrameEndsStream(t *testing.T) {
	cfg := gridtest.Config()
	// The default policy holds the session open for the agent forever,
	// so the test ends it once the agent has given up.
	coll := serve(t, cfg, wire.CollectorConfig{Agents: 1})
	var dials atomic.Int32
	agent, err := wire.DialAgent("", 0, cfg, wire.AgentOptions{
		Retry:        wire.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		ReplayBuffer: 1,
		Dialer: func() (net.Conn, error) {
			dials.Add(1)
			conn, err := coll.dial()
			if err != nil {
				return nil, err
			}
			return &corruptingConn{Conn: conn}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	trace := gridtest.Trace(4, 500, -1)
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	shipped := make(chan error, 1)
	go func() {
		for i, recs := range trace {
			p.ObserveBatch(recs)
			if err := agent.ShipOpenInterval(int64(i+1)*900_000, p.DrainOpenInterval()); err != nil {
				shipped <- err
				return
			}
		}
		shipped <- agent.Close()
	}()
	select {
	case err := <-shipped:
		if err == nil || !strings.Contains(err.Error(), "rejected") {
			t.Fatalf("agent over a corrupting link ended with %v, want the collector's refusal", err)
		}
	case <-time.After(5 * time.Second):
		coll.cancel() // closes the listener, so the agent's next redial fails
		t.Fatalf("no ship error after 5s and %d dials: the refused frame is being replayed", dials.Load())
	}
	if n := dials.Load(); n > 2 {
		t.Errorf("agent dialed %d times, want at most 2", n)
	}
	coll.cancel()
	if err := coll.end(t); !errors.Is(err, context.Canceled) {
		t.Fatalf("collector: %v, want the test's cancellation", err)
	}
}

// TestDuplicateAgentIDNewestWins pins the replacement-connection
// semantics: a second Hello for an already-connected agent ID takes
// over the stream (the legitimate owner of an ID is whoever can still
// dial), and the collector closes the superseded connection.
func TestDuplicateAgentIDNewestWins(t *testing.T) {
	cfg := gridtest.Config()
	digest := wire.ConfigDigest(cfg)
	coll := serve(t, cfg, wire.CollectorConfig{Agents: 1})
	connA, err := coll.dial()
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, connA, rawFrameHello, rawHello("AXWP", 4, 0, 0, digest))
	if typ, _, err := readRawFrame(connA); err != nil || typ != rawFrameHelloOK {
		t.Fatalf("first hello reply: type %d, err %v; want HelloOK", typ, err)
	}

	connB, err := coll.dial()
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, connB, rawFrameHello, rawHello("AXWP", 4, 0, 0, digest))
	if typ, _, err := readRawFrame(connB); err != nil || typ != rawFrameHelloOK {
		t.Fatalf("second hello reply: type %d, err %v; want HelloOK", typ, err)
	}

	// The first connection is superseded: the collector closes it, so
	// the next read fails instead of delivering a frame.
	if typ, _, err := readRawFrame(connA); err == nil {
		t.Fatalf("superseded connection still delivered frame type %d", typ)
	}
	connA.Close()

	// The replacement connection owns the stream: its Bye ends the
	// session and is confirmed with ByeOK.
	writeRawFrame(t, connB, rawFrameBye, nil)
	if typ, _, err := readRawFrame(connB); err != nil || typ != rawFrameByeOK {
		t.Fatalf("bye reply: type %d, err %v; want ByeOK", typ, err)
	}
	connB.Close()
	if err := coll.end(t); err != nil {
		t.Fatalf("collector: %v", err)
	}
	if n := len(coll.got); n != 1 {
		t.Fatalf("session emitted %d reports, want 1 parity report", n)
	}
}

// TestV2HelloRejected pins the end of protocol v2: a v2 Hello (no resume
// offset, no reply expected by its sender) is answered with a versioned
// Error frame naming the one version spoken, and the rejection leaves
// the session intact for a current agent.
func TestV2HelloRejected(t *testing.T) {
	cfg := gridtest.Config()
	coll := serve(t, cfg, wire.CollectorConfig{Agents: 1})
	conn, err := coll.dial()
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 2, 0, 0, wire.ConfigDigest(cfg)))
	typ, payload, err := readRawFrame(conn)
	if err != nil || typ != rawFrameError {
		t.Fatalf("v2 hello reply: type %d, err %v; want an Error frame", typ, err)
	}
	code, n := binary.Uvarint(payload)
	if n <= 0 || code != 3 { // errCodeBadVersion
		t.Fatalf("error payload % x: code %d, want 3 (bad version)", payload, code)
	}
	if msg := string(payload[n:]); !strings.Contains(msg, "unsupported protocol version 2 (want 4..4)") {
		t.Errorf("error message %q does not name version 2 and the accepted range 4..4", msg)
	}
	conn.Close()

	agent, err := wire.DialAgent("", 0, cfg, wire.AgentOptions{Dialer: coll.dial})
	if err != nil {
		t.Fatalf("current agent after the v2 rejection: %v", err)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coll.end(t); err != nil {
		t.Fatalf("collector: %v", err)
	}
	if n := len(coll.got); n != 1 {
		t.Fatalf("session emitted %d reports, want 1 parity report", n)
	}
}

// TestServeMetricsBindFailureClosesListener: when the metrics address
// cannot be bound, Serve fails before it starts the session — it closes
// the session listener, as its doc promises, and leaves no goroutine
// behind. The relay serves its children through the same code, after
// it has connected upstream.
func TestServeMetricsBindFailureClosesListener(t *testing.T) {
	cfg := gridtest.Config()
	busy := listen(t)
	defer busy.Close()
	cc := wire.CollectorConfig{Agents: 1, MetricsAddr: busy.Addr().String()}
	for _, tc := range []struct {
		name  string
		serve func(t *testing.T) *host
	}{
		{"collector", func(t *testing.T) *host { return serve(t, cfg, cc) }},
		{"relay", func(t *testing.T) *host {
			parent := serve(t, cfg, wire.CollectorConfig{Agents: 1})
			rel := &host{cfg: cfg, cc: cc, rc: &wire.RelayConfig{Dialer: parent.dial}}
			rel.start(t)
			return rel
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gridtest.NoLeak(t)
			h := tc.serve(t)
			if err := h.end(t); err == nil || !strings.Contains(err.Error(), "metrics listener") {
				t.Fatalf("Serve returned %v, want the metrics bind error", err)
			}
			if conn, err := h.dial(); err == nil {
				conn.Close()
				t.Fatal("Serve returned with its listener still accepting")
			}
		})
	}
}
