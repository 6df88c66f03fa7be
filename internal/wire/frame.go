package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
)

// Frame types of the agent→collector stream.
const (
	// frameHello opens a connection: magic, protocol version, agent ID,
	// resume boundary, leaf span, and the detection-config digest.
	frameHello = 1
	// frameSnapshot is reserved: it was the full-pipeline-snapshot
	// interval frame, which nothing sends any more. readFrame rejects it
	// at the header like any other frame a peer must not send.
	frameSnapshot = 2
	// frameBye announces a clean end of stream; the agent has already
	// shipped its final partial interval as an ordinary open-interval
	// frame.
	frameBye = 3
	// frameOpenInterval carries one drained interval: the absolute grid
	// boundary (Unix ms) followed by a version-prefixed open-interval
	// body (clone histograms + flow buffer, no detection history — an
	// agent never accumulates any). This is what agents ship each
	// interval.
	frameOpenInterval = 4
	// frameAck flows collector→agent: a varint boundary b meaning every
	// interval frame with boundary <= b has been absorbed (and, when
	// checkpointing is on, made durable). The agent drops those frames
	// from its replay buffer; acks are cumulative, so a lost ack is
	// repaired by any later one.
	frameAck = 5
	// frameHelloOK flows collector→agent in reply to a Hello: a
	// varint boundary the agent must resume *after* (the collector's
	// dedup line for this agent). The agent trims its replay buffer to
	// frames beyond it before resending.
	frameHelloOK = 6
	// frameError flows collector→agent when a handshake or stream is
	// rejected: a uvarint errorCode* and a human-readable message, so an
	// operator sees "config mismatch" instead of a dropped connection.
	frameError = 7
	// frameByeOK flows collector→agent confirming a Bye was applied, so
	// the agent's Close can distinguish "stream ended cleanly" from "the
	// connection died and the Bye may be lost" — in the latter case it
	// redials and resends the Bye, keeping the collector from holding a
	// finished session open for an agent that will never return.
	frameByeOK = 8
	// frameRelayInterval carries one merged interval shipped by a relay
	// node (see Relay): the grid boundary and codec version as in
	// frameOpenInterval, then a relay header — the half-open span of
	// global leaf IDs the relay aggregates and the ascending in-span
	// leaf IDs this boundary closed without — followed by the merged
	// open-interval body. The span lets the root attribute Partial
	// reports (and a silent relay) to leaf agents instead of relay IDs.
	frameRelayInterval = 9
)

// Error codes carried by frameError.
const (
	errCodeOther = iota
	errCodeConfigMismatch
	errCodeBadAgentID
	errCodeBadVersion
	errCodeSessionEnded
)

// errSessionEnded is the decoded form of an errCodeSessionEnded
// rejection: the collector already applied this agent's Bye. An agent
// redialing to resend a Bye whose ByeOK was lost treats it as the
// confirmation it was waiting for.
var errSessionEnded = errors.New("wire: collector already ended this agent's stream")

// refusal marks a frame error in the frame itself rather than in its
// transport: a reserved type or a length over its type's limit, an
// unexpected type, a payload that does not decode, or a boundary out of
// order. After the handshake the collector answers a refusal with an
// Error frame, which ends the agent's stream; a transport error (EOF,
// reset) just drops the connection, and the agent redials.
type refusal struct{ error }

// protoVersion is the framing/handshake version; bump together with any
// protocol-shape change. Version 3 made the stream survivable (resume
// boundary, HelloOK, Acks, Error frames); version 4 adds the sender's
// leaf span to Hello, so a collector can name a relay child's leaves
// without any frame from it. Collectors accept minProtoVersion..
// protoVersion and refuse other hellos with errCodeBadVersion.
const (
	protoVersion    = 4
	minProtoVersion = 4
)

// helloMagic starts every Hello payload, so a collector fed a stray
// connection fails with a clear error instead of a codec one.
var helloMagic = [4]byte{'A', 'X', 'W', 'P'}

// maxFrameLen bounds an interval frame (1 GiB). Interval frames carry a
// whole interval's flow buffer, so the bound is generous; anything
// larger is treated as stream corruption.
const maxFrameLen = 1 << 30

// maxControlLen bounds every other frame (4 KiB): the control payloads
// are a few varints, a digest, or a short error message, and they are
// what a collector reads from a connection it knows nothing about yet.
const maxControlLen = 4 << 10

// frameLimit returns the largest length field (type byte included) a
// frame of type typ may claim. readFrame checks it before allocating,
// so only a peer that has passed the handshake and names an interval
// frame can make the reader reserve more than maxControlLen.
func frameLimit(typ byte) (uint32, error) {
	switch typ {
	case frameOpenInterval, frameRelayInterval:
		return maxFrameLen, nil
	case frameBye, frameByeOK:
		return 1, nil // the type byte alone
	case frameSnapshot:
		return 0, refusal{fmt.Errorf("wire: unexpected frame type %d (reserved)", typ)}
	default:
		return maxControlLen, nil
	}
}

// writeFrame writes one length-prefixed frame: uint32 big-endian payload
// length (including the type byte), the type byte, then the payload. The
// header is built in w's free buffer space, so a frame costs no
// allocation; the caller flushes.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)+1))
	if _, err := w.Write(append(hdr, typ)); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: writing frame payload: %w", err)
	}
	return nil
}

// frameGrowStep bounds how far a frame's payload buffer may grow ahead
// of the bytes actually received. The length field is the peer's claim,
// not a fact: a peer that names a maxFrameLen frame and then sends ten
// bytes costs one step of memory, not the gigabyte it claimed.
const frameGrowStep = 1 << 20

// readFrame reads one frame into a fresh payload, returning its type and
// payload.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return readFrameInto(r, nil)
}

// readFrameInto reads one frame, returning its type and payload. The
// payload is read into buf's memory while it fits, then into memory
// grown in steps of at most frameGrowStep as the bytes arrive; a caller
// that passes the previous payload back reads a steady stream of frames
// without allocating.
func readFrameInto(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	// The header is read into buf too: a local array would escape
	// through the io.Reader call and cost an allocation per frame.
	hdr := append(buf[:0], 0, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	typ = hdr[4]
	limit, err := frameLimit(typ)
	if err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > limit {
		return 0, nil, refusal{fmt.Errorf("wire: frame length %d out of range for type %d", n, typ)}
	}
	buf = hdr
	need := int(n - 1)
	payload = buf[:min(need, cap(buf))]
	for read := 0; ; {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return 0, nil, fmt.Errorf("wire: reading frame payload: %w", err)
		}
		if read = len(payload); read == need {
			return typ, payload, nil
		}
		payload = slices.Grow(payload, min(need-read, frameGrowStep))
		payload = payload[:min(need, cap(payload))]
	}
}

// configDigest hashes the detection-relevant configuration — the
// monitored feature list and the *defaulted* detector template — into a
// 64-bit value both ends of a connection must agree on. Two processes
// with equal digests build histogram clones over the same feature
// space, bin count, and seeded hash functions, which is exactly the
// precondition for the Absorb merge path to be meaningful; mining-side
// settings (miner choice, support, prefilter strategy) are deliberately
// excluded, since only the collector's copies of those ever run.
func configDigest(cfg core.Config) uint64 {
	feats := cfg.Features
	if len(feats) == 0 {
		feats = flow.DetectorFeatures[:]
	}
	d := cfg.Detector.WithDefaults()
	var b []byte
	b = appendUvarint(b, uint64(len(feats)))
	for _, f := range feats {
		b = appendUvarint(b, uint64(f))
	}
	b = appendUvarint(b, uint64(d.Bins))
	b = appendUvarint(b, uint64(d.Clones))
	b = appendUvarint(b, uint64(d.Votes))
	b = appendFloat64(b, d.Alpha)
	b = appendUvarint(b, uint64(d.TrainIntervals))
	b = appendUvarint(b, uint64(d.HistoryWindow))
	b = appendVarint(b, int64(d.MaxRemoveBins))
	b = appendUvarint(b, d.Seed)
	// The former detector-metric slot, always KL: kept so every digest,
	// and the version-3 checkpoints and live handshakes carrying one,
	// stays the same.
	b = appendUvarint(b, 0)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// hello is the decoded handshake.
type hello struct {
	agentID int
	// resume is the last boundary the agent knows to be acked (0 for
	// none). Frames the agent resends after a reconnect start beyond it.
	resume int64
	// spanLo and spanLen are the sender's global leaf span: a relay's
	// [LeafBase, LeafBase+fan-in), empty (0, 0) for a plain agent. Its
	// interval frames must carry the same span.
	spanLo, spanLen int
	digest          uint64
}

// appendHello encodes the handshake payload: magic, protocol version,
// agent ID, the resume boundary, the leaf span, and the config digest as
// the trailing 8 bytes.
func appendHello(b []byte, h hello) []byte {
	b = append(b, helloMagic[:]...)
	b = appendUvarint(b, protoVersion)
	b = appendUvarint(b, uint64(h.agentID))
	b = appendVarint(b, h.resume)
	b = appendUvarint(b, uint64(h.spanLo))
	b = appendUvarint(b, uint64(h.spanLen))
	return binary.LittleEndian.AppendUint64(b, h.digest)
}

// errBadHelloVersion marks an out-of-range protocol version so the
// collector can answer with a versioned frameError instead of silently
// dropping the connection.
type errBadHelloVersion int

// Error satisfies error with the version range the collector speaks.
func (v errBadHelloVersion) Error() string {
	return fmt.Sprintf("wire: unsupported protocol version %d (want %d..%d)",
		int(v), minProtoVersion, protoVersion)
}

// decodeHello parses a Hello payload.
func decodeHello(payload []byte) (hello, error) {
	r := &reader{buf: payload}
	var magic [4]byte
	for i := range magic {
		magic[i] = r.byte()
	}
	if r.err() == nil && magic != helloMagic {
		return hello{}, fmt.Errorf("wire: bad hello magic %q", magic[:])
	}
	v := r.uvarint()
	if r.err() == nil && (v < minProtoVersion || v > protoVersion) {
		return hello{}, errBadHelloVersion(v)
	}
	var h hello
	h.agentID = int(r.uvarint())
	h.resume = r.varint()
	lo, n := r.uvarint(), r.uvarint()
	if r.err() == nil && (lo > maxLeafSpan || n > maxLeafSpan-lo || (n == 0 && lo != 0)) {
		r.fail("hello leaf span [%d,+%d) out of range", lo, n)
	}
	h.spanLo, h.spanLen = int(lo), int(n)
	if r.rem() != 8 {
		r.fail("hello digest is not the trailing 8 bytes")
	}
	if r.err() != nil {
		return hello{}, r.err()
	}
	h.digest = binary.LittleEndian.Uint64(payload[len(payload)-8:])
	r.off += 8
	r.expectEOF()
	return h, r.err()
}

// appendBoundary encodes the payload of an Ack or HelloOK frame: the
// boundary alone.
func appendBoundary(b []byte, boundary int64) []byte {
	return appendVarint(b, boundary)
}

// decodeBoundary parses an Ack or HelloOK payload.
func decodeBoundary(payload []byte) (int64, error) {
	r := &reader{buf: payload}
	b := r.varint()
	r.expectEOF()
	return b, r.err()
}

// appendError encodes a frameError payload: code, then the message
// bytes to the end of the frame.
func appendError(b []byte, code uint64, msg string) []byte {
	b = appendUvarint(b, code)
	return append(b, msg...)
}

// decodeError parses a frameError payload into the error the agent
// surfaces: a ConfigMismatchError for errCodeConfigMismatch, a plain
// error otherwise.
func decodeError(payload []byte) error {
	r := &reader{buf: payload}
	code := r.uvarint()
	if r.err() != nil {
		return fmt.Errorf("wire: malformed error frame: %w", r.err())
	}
	msg := string(payload[r.off:])
	switch code {
	case errCodeConfigMismatch:
		var e ConfigMismatchError
		if _, err := fmt.Sscanf(msg, configMismatchFormat, &e.Agent, &e.Collector); err == nil {
			return &e
		}
	case errCodeSessionEnded:
		return errSessionEnded
	}
	return fmt.Errorf("wire: collector rejected the connection: %s", msg)
}

// configMismatchFormat is the message layout of a digest-mismatch
// rejection; both ends use it so the agent can reconstruct the digests.
const configMismatchFormat = "config mismatch: agent=%x collector=%x"

// ConfigMismatchError reports a handshake rejected because the agent's
// detection-config digest differs from the collector's — the two would
// merge incompatible histogram spaces. It carries both digests so an
// operator can diff the configurations; cmd/anomalyx maps it to a
// distinct exit code.
type ConfigMismatchError struct {
	// Agent and Collector are the two configuration digest values that differed.
	Agent, Collector uint64
}

// Error renders the mismatch with both digests.
func (e *ConfigMismatchError) Error() string {
	return "wire: " + fmt.Sprintf(configMismatchFormat, e.Agent, e.Collector)
}
