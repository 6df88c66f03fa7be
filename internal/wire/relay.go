package wire

import (
	"context"
	"fmt"
	"net"

	"anomalyx/internal/core"
	"anomalyx/internal/wire/metrics"
)

// Hierarchical federation. Because equal-seed histogram clones are
// exact mergeable sketches, absorbing open intervals is associative and
// commutative in the histogram domain (per-bin counter addition) while
// the flow buffers concatenate in absorb order. So a relay absorbs its
// children's frames in child-ID order and ships the merged interval
// upstream as one frameRelayInterval. As long as every tier absorbs in
// ascending global leaf order — which the LeafBase numbering guarantees
// for contiguous trees — the root's reports are byte-identical to a flat
// deployment of the same leaves. A child's frame is acked only once the
// merged frame holding it is acked by the parent or written to the
// relay's checkpoint, so no tier can lose or duplicate a boundary.

// maxLeafSpan bounds a relay frame's declared leaf span (1M leaves);
// anything larger is treated as stream corruption, keeping a malformed
// header from inflating Partial attribution or overflowing arithmetic.
const maxLeafSpan = 1 << 20

// appendRelayHeader encodes the relay-frame header that follows the
// boundary and codec version: uvarint spanLo, uvarint spanLen (≥ 1),
// then the missing-leaf list as a uvarint count and strictly ascending
// uvarint global leaf IDs, each within [spanLo, spanLo+spanLen).
func appendRelayHeader(b []byte, spanLo, spanLen int, missing []int) []byte {
	b = appendUvarint(b, uint64(spanLo))
	b = appendUvarint(b, uint64(spanLen))
	b = appendUvarint(b, uint64(len(missing)))
	for _, id := range missing {
		b = appendUvarint(b, uint64(id))
	}
	return b
}

// decodeRelayHeader parses and validates a relay-frame header.
func decodeRelayHeader(r *reader) (spanLo, spanLen int, missing []int) {
	lo := r.uvarint()
	n := r.uvarint()
	if r.err() == nil && (n < 1 || lo > maxLeafSpan || n > maxLeafSpan) {
		r.fail("relay leaf span [%d,%d+%d) out of range", lo, lo, n)
		return 0, 0, nil
	}
	spanLo, spanLen = int(lo), int(n)
	count := r.length(1)
	if r.err() == nil && count > spanLen {
		r.fail("relay missing-leaf count %d exceeds span length %d", count, spanLen)
		return 0, 0, nil
	}
	prev := -1
	for i := 0; i < count; i++ {
		id := r.uvarint()
		if r.err() != nil {
			return 0, 0, nil
		}
		if id < uint64(spanLo) || id >= uint64(spanLo+spanLen) || int(id) <= prev {
			r.fail("relay missing leaf %d not ascending within span [%d,%d)", id, spanLo, spanLo+spanLen)
			return 0, 0, nil
		}
		prev = int(id)
		missing = append(missing, int(id))
	}
	return spanLo, spanLen, missing
}

// decodePayload parses the payload of one interval-bearing frame
// (frameOpenInterval or frameRelayInterval) into the queued form the
// merge loop absorbs. The frame's interval lives in d's memory, and the
// frame carries d so the merge loop can recycle it once absorbed.
func (d *intervalDecoder) decodePayload(typ byte, payload []byte) (queuedFrame, error) {
	rd := &reader{buf: payload}
	frame := queuedFrame{boundary: rd.varint(), dec: d}
	if v := rd.byte(); rd.err() == nil && v != codecVersion {
		rd.fail("unsupported codec version %d (want %d)", v, codecVersion)
	}
	if typ == frameRelayInterval {
		frame.spanLo, frame.spanLen, frame.missing = decodeRelayHeader(rd)
	}
	d.decodeOpenInterval(rd)
	frame.oi = d.oi
	rd.expectEOF()
	if rd.err() == nil && frame.boundary <= 0 {
		rd.fail("non-positive snapshot boundary %d", frame.boundary)
	}
	if rd.err() != nil {
		return queuedFrame{}, rd.err()
	}
	return frame, nil
}

// RelayConfig parameterizes a relay node: the collector session it
// runs for its children and the agent stream it ships to its parent.
type RelayConfig struct {
	// Collector configures the child-facing session as it would a root
	// collector's. Agents is the relay's fan-in, with local child IDs in
	// [0, Agents). A relay with a CheckpointPath writes its durable state
	// there after shipping each merged frame and before acking its
	// children, which are then settled at once instead of at the
	// upstream ack; Resume also puts the checkpoint's held upstream
	// frames back in line ahead of the first dial.
	Collector CollectorConfig
	// AgentID is the relay's own ID on its parent, in [0, parent fan-in).
	AgentID int
	// Parent is the parent collector's (or parent relay's) address.
	Parent string
	// LeafBase is the first global leaf ID of this relay's span; the
	// relay's children cover [LeafBase, LeafBase+Collector.Agents). 0
	// derives AgentID·Collector.Agents — the natural numbering for a
	// balanced tree, which makes the root's absorb order identical to a
	// flat deployment's. Set it explicitly for irregular trees. Every
	// hello declares the span, so the parent names these leaves Partial
	// when the relay is missing; one it never heard from is named by the
	// leaves its heard siblings leave between them, or past the last of
	// them by that sibling's width, as in a balanced tree.
	LeafBase int
	// Retry is the upstream redial policy; see RetryConfig. The
	// upstream replay buffer takes AgentOptions' default.
	Retry RetryConfig
	// Dialer overrides the upstream dial; nil dials Parent over TCP.
	Dialer func() (net.Conn, error)
}

// Relay is a mid-tier federation node: a Collector facing its children
// and an Agent facing its parent. It closes each boundary as a root does,
// but drains the merged open interval and ships it upstream instead of
// closing detection, and acks a child only once the parent has acked the
// merged frame (or a relay checkpoint holds it).
type Relay struct {
	c *Collector
}

// NewRelay builds a relay node. cfg must be the same pipeline
// configuration the whole tree runs; its digest is checked on both
// faces' handshakes. rc.Collector is validated as NewCollector
// validates a root's.
func NewRelay(cfg core.Config, rc RelayConfig) (*Relay, error) {
	if rc.AgentID < 0 {
		return nil, fmt.Errorf("wire: negative relay agent ID %d", rc.AgentID)
	}
	if rc.Parent == "" && rc.Dialer == nil {
		return nil, fmt.Errorf("wire: relay needs a parent address")
	}
	fanIn := rc.Collector.Agents
	if rc.LeafBase == 0 {
		rc.LeafBase = rc.AgentID * fanIn
	}
	if rc.LeafBase < 0 || rc.LeafBase+fanIn > maxLeafSpan {
		return nil, fmt.Errorf("wire: relay leaf span [%d,%d) outside [0,%d)",
			rc.LeafBase, rc.LeafBase+fanIn, maxLeafSpan)
	}
	up := newAgent(rc.Parent, rc.AgentID, cfg, AgentOptions{Retry: rc.Retry, Dialer: rc.Dialer})
	up.s.spanLo, up.s.spanLen, up.acks = rc.LeafBase, fanIn, make(chan int64, 1)
	c, err := newCollector(cfg, rc.Collector, up)
	if err != nil {
		return nil, err
	}
	return &Relay{c: c}, nil
}

// Metrics returns the relay's metrics surface: the child-facing session
// counters plus the relay's frames_relayed/frames_held.
func (r *Relay) Metrics() *metrics.Session { return r.c.met }

// Serve runs the relay on ln until every child has ended or been
// abandoned: dial the parent (failing fast on a rejected handshake,
// e.g. a config-digest mismatch), run the child-facing session with
// every closed boundary forwarded upstream, then end the upstream
// stream cleanly with Bye. On a session error the upstream connection
// is severed without Bye, so the parent keeps the relay resumable.
func (r *Relay) Serve(ctx context.Context, ln net.Listener) error {
	up := r.c.fwd
	if err := up.connect(); err != nil {
		ln.Close()
		return err
	}
	if err := r.c.Serve(ctx, ln, nil); err != nil {
		up.abort()
		return err
	}
	return up.Close()
}

// Close releases the relay's pipeline and severs any upstream
// connection that Serve left (it must not be called while Serve runs).
func (r *Relay) Close() {
	r.c.fwd.abort()
	r.c.Close()
}
