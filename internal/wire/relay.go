package wire

import (
	"context"
	"fmt"
	"net"
	"slices"

	"anomalyx/internal/core"
	"anomalyx/internal/wire/metrics"
)

// Hierarchical federation. Because equal-seed histogram clones are
// exact mergeable sketches, absorbing open intervals is associative and
// commutative in the histogram domain (per-bin counter addition) while
// the flow buffers concatenate in absorb order. A relay node therefore
// runs a Collector facing its children and an Agent facing its parent:
// each boundary it absorbs its children's frames in child-ID order,
// drains the merged open interval, and ships it upstream as one
// frameRelayInterval. As long as every tier absorbs in ascending global
// leaf order — which the LeafBase numbering guarantees for contiguous
// trees — the root's reports are byte-identical to a flat deployment of
// the same leaves, and to a single process running them as local
// shards. Only the root owns detection history and emits reports.
//
// The ordering rule that makes a relay crash-safe: a child's frame is
// acked only after the merged frame containing it is acked by the
// parent, or durably written to the relay's checkpoint. Until then the
// boundary survives in either the children's replay buffers or the
// relay checkpoint's held frames, so no tier of the tree can lose or
// duplicate a boundary.

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

// appendRelayPayload encodes a complete frameRelayInterval payload —
// what ship produces from the same parts. It exists so the fuzz target
// can assert decode∘encode is the identity on accepted payloads.
func appendRelayPayload(b []byte, boundary int64, spanLo, spanLen int, missing []int, oi core.OpenInterval) []byte {
	b = appendVarint(b, boundary)
	b = append(b, codecVersion)
	b = appendRelayHeader(b, spanLo, spanLen, missing)
	return new(encoder).appendOpenInterval(b, oi)
}

// forwarder is a collector's forward mode: instead of closing detection
// and emitting reports, every closed boundary is drained and shipped
// upstream through agent, tagged with the relay's global leaf span. A
// non-nil fwd switches closeBoundary's second half.
type forwarder struct {
	agent           *Agent
	spanLo, spanLen int
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
	// flat deployment's. Set it explicitly for irregular trees.
	LeafBase int
	// Retry is the upstream redial policy; see RetryConfig. The
	// upstream replay buffer takes AgentOptions' default.
	Retry RetryConfig
	// Dialer overrides the upstream dial; nil dials Parent over TCP.
	Dialer func() (net.Conn, error)
}

// Relay is a mid-tier federation node: a Collector facing its children
// and an Agent facing its parent. It absorbs each child boundary via
// the same merge path a root collector uses, but instead of closing
// detection it drains the merged open interval and ships it upstream —
// the parent (ultimately the root) owns all detection state. Both faces
// reuse the ack/replay/redial machinery, with the relay's ack to a
// child gated on the upstream ack of the merged frame (or on a durable
// relay checkpoint), so no boundary is lost to a relay crash.
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
	c, err := newCollector(cfg, rc.Collector, &forwarder{agent: up, spanLo: rc.LeafBase, spanLen: fanIn})
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
	up := r.c.fwd.agent
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
	r.c.fwd.agent.abort()
	r.c.Close()
}

// watchUpstreamAcks runs beside a forwarding merge loop, turning the
// upstream agent's ack progress into merge events: the merge loop
// settles children (ack-after-upstream) and updates the held-frames
// gauge. It exits when the upstream stream ends or the session does.
func (c *Collector) watchUpstreamAcks(s *session) {
	var last int64
	for {
		line, ok := c.fwd.agent.waitAckedAbove(last)
		if !ok {
			return
		}
		last = line
		select {
		case s.events <- event{kind: evUpstreamAck, boundary: line}:
		case <-s.done:
			return
		}
	}
}

// missingFor computes the global leaf IDs boundary b closes without:
// the IDs carried by child relay frames, plus every down or dead child
// with nothing queued and nothing absorbed for b — expanded to its leaf
// span when the child is itself a relay, mapped through spanLo when it
// is a direct child of a relay, or reported as its own ID at the root.
// The result is sorted and deduplicated; nil when complete.
func (s *session) missingFor(b int64, frameMissing []int, spanLo int) []int {
	missing := frameMissing
	for id, st := range s.ag {
		if (st.status != statusDown && st.status != statusDead) || len(st.queue) > 0 || st.absorbed >= b {
			continue
		}
		if st.spanLen > 0 {
			for leaf := st.spanLo; leaf < st.spanLo+st.spanLen; leaf++ {
				missing = append(missing, leaf)
			}
		} else {
			missing = append(missing, spanLo+id)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	slices.Sort(missing)
	return slices.Compact(missing)
}

// ackChildren pushes every connected child its ack line — cumulative,
// so late children catch up on their next ack.
func (c *Collector) ackChildren(s *session) {
	for id := range s.ag {
		c.ack(s, id)
	}
}

// ackLine is the line agent st may be acked up to: its commit point. A
// root without a checkpoint commits a frame when it queues it — a queued
// frame is as durable as it will ever be there — so it acks the agent's
// queue tail as well as the settled line. Elsewhere the settled line
// alone: written to the checkpoint, or acked by the relay's parent.
func (c *Collector) ackLine(s *session, st *agentState) int64 {
	if c.fwd == nil && c.cc.CheckpointPath == "" {
		return max(s.acked, st.tail())
	}
	return s.acked
}

// ack pushes agent id's ack line to its connection, unless the
// connection already has it; the last_acked metric follows.
func (c *Collector) ack(s *session, id int) {
	st := s.ag[id]
	if line := c.ackLine(s, st); st.conn != nil && line > st.sent {
		st.sent = line
		pushLatest(st.ackCh, line)
		c.met.Agent(id).SetLastAcked(line)
	}
}
