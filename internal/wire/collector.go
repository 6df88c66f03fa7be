package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/wire/metrics"
)

// PartialPolicy selects what the collector does with an interval whose
// boundary is pending while some agent's frame for it is missing.
type PartialPolicy int

const (
	// HoldWithTimeout (the default) holds the interval open waiting for
	// the missing agent to deliver — a disconnected one to reconnect, a
	// connected one to send its frame; after HoldTimeout the agent is
	// declared dead and the interval closes without it, flagged Partial.
	// So a hung agent that keeps its connection open cannot hold the
	// session; its next frame, even a late one, makes it live again. A
	// zero HoldTimeout holds forever.
	HoldWithTimeout PartialPolicy = iota
	// CloseWithout closes intervals immediately without disconnected
	// agents, flagging them Partial. Connected agents are always waited
	// for (their frames are in flight or their connection will break),
	// so this policy only degrades reports when a connection is
	// actually down.
	CloseWithout
)

// String names the policy.
func (p PartialPolicy) String() string {
	switch p {
	case HoldWithTimeout:
		return "hold-with-timeout"
	case CloseWithout:
		return "close-without"
	default:
		return fmt.Sprintf("partial-policy(%d)", int(p))
	}
}

// CollectorConfig parameterizes a collector session beyond the pipeline
// configuration: fleet size, partial-interval policy, checkpointing,
// and the metrics listener.
type CollectorConfig struct {
	// Agents is the fleet size; agent IDs must be in [0, Agents).
	Agents int
	// Policy selects the partial-interval behavior; see PartialPolicy.
	Policy PartialPolicy
	// HoldTimeout bounds how long HoldWithTimeout waits for a missing
	// agent's frame, whether the agent is disconnected or connected and
	// silent, before closing without it. 0 holds forever; a negative
	// timeout is refused.
	HoldTimeout time.Duration
	// CheckpointPath, when non-empty, makes the collector write its
	// durable state there (fsynced temp + atomic rename) after every
	// closed interval, before acking the interval's frames. Without it a
	// root acks each frame as soon as it queues it, there being nothing
	// more durable to wait for, and a relay acks once its parent has.
	CheckpointPath string
	// Resume makes NewCollector load CheckpointPath and Serve continue
	// from it: the detection history, interval numbering, and per-agent
	// dedup lines pick up where the checkpointed session stopped. A
	// checkpoint written under another detection configuration (see the
	// handshake digest) is refused.
	Resume bool
	// MetricsAddr, when non-empty, serves the session's expvar metrics
	// over HTTP on that address for the lifetime of Serve.
	MetricsAddr string
}

// queueCap bounds each agent's pending-frame queue: the ingest credits
// its connection's reader holds. A credit in use is a live decoder, a
// frame's clone histograms and records, and agents acked on queue run
// ahead into every credit, so there is one: closeBoundary refunds it at
// absorb, and the reader still decodes frame k+1 while the merge loop
// detects and mines k.
const queueCap = 1

// agentStatus is the collector's per-agent connection-state machine.
type agentStatus uint8

const (
	// statusPending: never connected this session. Blocks interval
	// closes under both policies — the session has no grid information
	// from the agent yet, and startup skew must not produce partial
	// reports.
	statusPending agentStatus = iota
	// statusLive: connected. Blocks closes until its next frame arrives
	// (in-order delivery means the frame is coming or the connection
	// will break) or, under HoldWithTimeout, the hold timer fires.
	statusLive
	// statusDown: disconnected, expected back (HoldWithTimeout). Blocks
	// closes until it reconnects or the hold timer fires.
	statusDown
	// statusDead: not waited for — a drop under CloseWithout, or a hold
	// timeout, which may find the agent still connected but silent.
	// Never blocks; intervals close without it, flagged Partial. The
	// agent leaves it by reconnecting, by sending any frame (queued or
	// dropped as late) on the connection it kept, or, when that
	// connection ends, as any lost agent does.
	statusDead
	// statusBye: ended its stream cleanly. Never blocks; a later hello
	// for the same ID is rejected.
	statusBye
)

func (s agentStatus) metricsName() string {
	switch s {
	case statusLive:
		return metrics.StatusLive
	case statusDown:
		return metrics.StatusDown
	case statusDead:
		return metrics.StatusDead
	case statusBye:
		return metrics.StatusBye
	default:
		return metrics.StatusPending
	}
}

// Collector is the receiving half of the protocol. It merges the
// agents' drained interval frames by absolute grid boundary, absorbing
// each boundary's frames into its pipeline in agent-ID order (the same
// additive merge in-process sharding uses) and closing detection
// there, so the merged report stream is byte-identical to a single
// process having run all agent partitions as local shards.
//
// A session survives its transports: connections may drop and reconnect
// freely (agents replay unacked frames; the collector deduplicates
// against its per-agent absorbed line and queue tail), a replacement
// connection for an agent ID supersedes the old one (newest wins — the
// legitimate owner of an ID is whoever can still dial), and a
// permanently missing agent degrades reports per the PartialPolicy
// instead of killing the session. Only listener, pipeline, emit,
// checkpoint, and context errors are fatal.
type Collector struct {
	cc      CollectorConfig
	digest  uint64
	primary *core.Pipeline // owns all detection state
	met     *metrics.Session
	// fwd, when non-nil, puts the collector in forward mode: it is the
	// child-facing half of a Relay, and every closed boundary is drained
	// and shipped upstream instead of closing detection. See relay.go.
	fwd *forwarder
	// restored is the checkpoint a Resume collector was built from, until
	// Serve has seeded its session table from it.
	restored *checkpoint
}

// NewCollector builds a collector. cfg is the full pipeline
// configuration — detection parameters must match the agents' (enforced
// via the handshake digest), and the mining-side settings (miner,
// support, prefilter) are the ones that actually run.
func NewCollector(cfg core.Config, cc CollectorConfig) (*Collector, error) {
	return newCollector(cfg, cc, nil)
}

// newCollector builds a root collector (fwd nil) or a relay's
// child-facing half. With cc.Resume it loads the checkpoint, refuses
// one written under another configuration digest, and puts its tail
// back where it came from — the detection history into the pipeline, or
// the held frames into the upstream agent's replay buffer, ahead of
// that agent's first dial.
func newCollector(cfg core.Config, cc CollectorConfig, fwd *forwarder) (*Collector, error) {
	if cc.Agents < 1 {
		return nil, fmt.Errorf("wire: collector needs at least 1 agent, got %d", cc.Agents)
	}
	if cc.HoldTimeout < 0 {
		return nil, fmt.Errorf("wire: negative hold timeout %v", cc.HoldTimeout)
	}
	if cc.Resume && cc.CheckpointPath == "" {
		return nil, fmt.Errorf("wire: Resume requires CheckpointPath")
	}
	primary, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	c := &Collector{
		cc:      cc,
		digest:  configDigest(cfg),
		primary: primary,
		met:     metrics.NewSession(cc.Agents),
		fwd:     fwd,
	}
	if cc.Resume {
		if err := c.loadCheckpoint(); err != nil {
			primary.Close()
			return nil, err
		}
	}
	return c, nil
}

// loadCheckpoint reads the checkpoint a Resume session continues from.
func (c *Collector) loadCheckpoint() error {
	cp, err := loadCheckpointFile(c.cc.CheckpointPath, c.fwd != nil)
	if err != nil {
		return err
	}
	if cp.digest != c.digest {
		return fmt.Errorf("wire: checkpoint written under config digest %x, session configured with %x",
			cp.digest, c.digest)
	}
	if len(cp.absorbed) != c.cc.Agents {
		return fmt.Errorf("wire: checkpoint has %d agents, session configured for %d",
			len(cp.absorbed), c.cc.Agents)
	}
	if c.fwd != nil {
		c.fwd.agent.preloadReplay(cp.held)
	} else if err := c.primary.RestoreSnapshot(cp.hist); err != nil {
		return fmt.Errorf("wire: restoring checkpoint history: %w", err)
	}
	c.restored = &cp
	return nil
}

// Metrics returns the session's metrics surface, for callers that want
// to expvar.Publish it or serve it themselves (MetricsAddr does the
// latter in-process).
func (c *Collector) Metrics() *metrics.Session { return c.met }

// Close releases the collector's pipeline. It must not be called while
// Serve is running.
func (c *Collector) Close() { c.primary.Close() }

// Event kinds of the merge loop. Everything that happens to a session —
// handshakes, frames, disconnects, timeouts — is serialized into one
// event stream consumed by a single goroutine that owns all merge
// state.
type eventKind int

const (
	evHello eventKind = iota
	evFrame
	evBye
	evConnErr
	evAcceptErr
	evHoldTimeout
	// evUpstreamAck (forward mode only): the relay's parent advanced its
	// cumulative ack line to boundary; children may now be settled up to
	// it.
	evUpstreamAck
)

// event is one merge-loop input.
type event struct {
	kind  eventKind
	conn  net.Conn
	hello hello
	reply chan helloReply

	id, gen  int
	boundary int64
	frame    queuedFrame
	err      error
}

// helloReply is the merge loop's answer to a handshake: either a
// rejection (err + frame error code) or the attachment the connection
// handler reads frames under.
type helloReply struct {
	err     error
	code    uint64
	gen     int
	credits chan struct{}
	free    chan *intervalDecoder
	// refused carries the reader's refusal, if any, to the ack writer.
	refused chan<- error
}

// queuedFrame is one received-but-unabsorbed interval frame.
type queuedFrame struct {
	boundary int64
	oi       core.OpenInterval
	// dec is the decoder whose memory oi lives in, returned to the
	// agent's free list once oi is absorbed or dropped.
	dec *intervalDecoder
	// Relay frames additionally carry the sender's global leaf span and
	// the in-span leaf IDs its boundary closed without; spanLen is 0 for
	// plain agent frames.
	missing         []int
	spanLo, spanLen int
}

// agentState is the merge loop's per-agent record.
type agentState struct {
	status  agentStatus
	gen     int           // connection generation; stale events carry an older one
	conn    net.Conn      // live connection, nil otherwise
	ackCh   chan int64    // latest-wins ack channel to conn's ack writer; set and cleared with conn
	credits chan struct{} // ingest tokens the connection's reader consumes
	// free is the agent's free list of decoders whose frames have been
	// absorbed or dropped; its connections decode into them. It outlives
	// connections, and the ingest credits bound how many decoders one
	// connection has in flight.
	free     chan *intervalDecoder
	queue    []queuedFrame // pending frames, boundary ascending
	absorbed int64         // highest boundary absorbed into the primary
	sent     int64         // ack line conn already has: its HelloOK or last Ack
	// emittedAtAbsorb is the session's emitted count when the agent last
	// participated in a close; emitted - emittedAtAbsorb is its lag.
	emittedAtAbsorb int64
	// spanLo/spanLen remember the leaf span of an agent that is itself a
	// relay (learned from its frames; spanLen 0 for plain agents), so a
	// fully silent relay degrades Partial attribution to its leaves.
	spanLo, spanLen int
}

// tail returns the agent's highest queued boundary, or its absorbed
// line when the queue is empty — the dedup line replayed frames must
// exceed.
func (a *agentState) tail() int64 {
	if n := len(a.queue); n > 0 {
		return a.queue[n-1].boundary
	}
	return a.absorbed
}

// session is the per-Serve mutable state, owned by the merge loop.
type session struct {
	ag         []*agentState
	lastClosed int64
	emitted    int64
	// acked is the settled line: every agent may be acked up to it (see
	// ackLine). At the root (and in a checkpointed relay) it tracks
	// lastClosed; in an ack-gated relay it is min(upstream ack line,
	// lastClosed) — the ack-after-upstream ordering rule that makes a
	// relay crash unable to lose a boundary.
	acked  int64
	events chan event
	done   chan struct{}
	// forget removes a connection from Serve's teardown set — called when
	// a Bye hands the connection to its ack writer, whose final ByeOK
	// write must not race the session-end mass close.
	forget func(net.Conn)
	// writers counts live ack-writer goroutines. Serve waits for them on
	// return so a collector process exiting right after the session ends
	// cannot kill a pending ByeOK write — in-process the goroutine would
	// finish anyway, but process exit would sever it mid-confirmation and
	// strand the agent redialing a dead listener.
	writers sync.WaitGroup

	holdTimer *time.Timer
	holdFor   int64 // boundary the armed timer covers, -1 when disarmed
}

// Serve runs one collector session on ln until every agent has ended
// (Bye) or been abandoned (dead with nothing pending), calling emit for
// each closed interval's report in boundary order. It accepts
// connections for the whole session — initial connects, reconnects, and
// replacements — and closes ln on return. Cancelling ctx shuts the
// session down and returns ctx.Err().
func (c *Collector) Serve(ctx context.Context, ln net.Listener, emit func(*core.Report) error) error {
	// Bind the metrics listener first: failing here must leave nothing
	// started and the resume checkpoint unconsumed.
	if c.cc.MetricsAddr != "" {
		mln, err := net.Listen("tcp", c.cc.MetricsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("wire: metrics listener: %w", err)
		}
		msrv := &http.Server{Handler: c.met.Handler()}
		go msrv.Serve(mln)
		defer msrv.Close()
	}

	s := &session{
		events:  make(chan event, 16),
		done:    make(chan struct{}),
		holdFor: -1,
	}
	s.ag = make([]*agentState, c.cc.Agents)
	for i := range s.ag {
		s.ag[i] = &agentState{free: make(chan *intervalDecoder, queueCap+1)}
	}
	if c.restored != nil {
		c.restore(s)
	}
	if c.fwd != nil {
		go c.watchUpstreamAcks(s)
	}

	// Track every accepted connection so session teardown can unblock
	// handler goroutines parked in reads.
	var cmu sync.Mutex
	conns := make(map[net.Conn]struct{})
	s.forget = func(conn net.Conn) {
		cmu.Lock()
		delete(conns, conn)
		cmu.Unlock()
	}
	defer func() {
		close(s.done)
		ln.Close()
		s.stopHold()
		cmu.Lock()
		//detlint:ok maprange -- teardown closes every tracked conn; Close order is unobservable
		for conn := range conns {
			conn.Close()
		}
		cmu.Unlock()
		s.writers.Wait()
	}()

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case s.events <- event{kind: evAcceptErr, err: err}:
				case <-s.done:
				}
				return
			}
			cmu.Lock()
			conns[conn] = struct{}{}
			cmu.Unlock()
			go c.handleConn(conn, s.events, s.done)
		}
	}()

	return c.merge(ctx, s, emit)
}

// restore seeds the session table from the checkpoint the collector was
// built from, and lets go of it.
func (c *Collector) restore(s *session) {
	cp := c.restored
	c.restored = nil
	s.lastClosed = cp.lastClosed
	s.emitted = cp.emitted
	// Agents were settled through lastClosed when the checkpoint was
	// written: a checkpointing session acks right after the write.
	s.acked = cp.lastClosed
	for id, st := range s.ag {
		st.absorbed = cp.absorbed[id]
		st.emittedAtAbsorb = cp.emitted
		// Every agent is disconnected at restart: finished and abandoned
		// ones stay so, everyone else is down (they will redial and resume).
		st.status = cp.statuses[id]
		if st.status != statusBye && st.status != statusDead {
			st.status = statusDown
		}
		c.met.Agent(id).SetStatus(st.status.metricsName())
	}
	c.met.SetLastClosed(s.lastClosed)
	if c.fwd != nil {
		c.met.SetFramesHeld(int64(c.fwd.agent.unackedFrames()))
	}
}

// handleConn owns one accepted connection: it performs the handshake
// against the merge loop, then decodes the agent→collector frame stream
// into merge events, consuming one ingest credit per frame so a fast
// agent cannot outrun the merge unboundedly. All collector→agent frames
// on an accepted connection are written by its ack writer, a refused
// frame's Error reply included; handshake rejections are written here,
// before any ack writer exists.
func (c *Collector) handleConn(conn net.Conn, events chan<- event, done <-chan struct{}) {
	typ, payload, err := readFrame(conn)
	if err != nil || typ != frameHello {
		conn.Close()
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		code := uint64(errCodeOther)
		if _, ok := err.(errBadHelloVersion); ok {
			code = errCodeBadVersion
		}
		reject(conn, code, err)
		return
	}
	reply := make(chan helloReply, 1)
	select {
	case events <- event{kind: evHello, conn: conn, hello: h, reply: reply}:
	case <-done:
		conn.Close()
		return
	}
	var r helloReply
	select {
	case r = <-reply:
	case <-done:
		conn.Close()
		return
	}
	if r.err != nil {
		reject(conn, r.code, r.err)
		return
	}

	id, gen := h.agentID, r.gen
	fail := func(err error) {
		if errors.As(err, new(refusal)) {
			r.refused <- err // capacity 1, and the reader fails once
		}
		select {
		case events <- event{kind: evConnErr, id: id, gen: gen, err: err}:
		case <-done:
		}
	}
	br := bufio.NewReader(conn)
	var last int64
	var buf []byte // the connection's payload buffer, reused frame to frame
	for {
		select {
		case <-r.credits:
		case <-done:
			return
		}
		typ, payload, err := readFrameInto(br, buf)
		if err != nil {
			fail(err)
			return
		}
		buf = payload
		switch typ {
		case frameOpenInterval, frameRelayInterval:
			var d *intervalDecoder
			select {
			case d = <-r.free:
			default:
				d = new(intervalDecoder)
			}
			frame, err := d.decodePayload(typ, payload)
			if err == nil && frame.boundary <= last {
				err = fmt.Errorf("wire: boundary %d not after %d on one connection", frame.boundary, last)
			}
			if err != nil {
				fail(refusal{err})
				return
			}
			last = frame.boundary
			select {
			case events <- event{kind: evFrame, id: id, gen: gen, boundary: frame.boundary, frame: frame}:
			case <-done:
				return
			}
		case frameBye:
			select {
			case events <- event{kind: evBye, id: id, gen: gen}:
			case <-done:
			}
			return
		default:
			fail(refusal{fmt.Errorf("wire: unexpected frame type %d", typ)})
			return
		}
	}
}

// reject answers a refused handshake with an Error frame, best effort,
// and closes the connection.
func reject(conn net.Conn, code uint64, err error) {
	writeError(bufio.NewWriter(conn), code, err)
	conn.Close()
}

// writeError writes an Error frame, best effort.
func writeError(w *bufio.Writer, code uint64, err error) {
	if writeFrame(w, frameError, appendError(nil, code, err.Error())) == nil {
		w.Flush()
	}
}

// byeOKSentinel on the ack channel makes the ack writer emit a ByeOK
// confirmation instead of an Ack; it is pushed (then the channel
// closed) when the merge loop applies the agent's Bye.
const byeOKSentinel int64 = -1

// ackWriter is the sole writer on an accepted connection: first the
// HelloOK reply carrying the agent's resume line, then an Ack frame per
// value received on ch (or the ByeOK confirmation for the sentinel). It
// exits on write error (the read side will notice the broken connection
// independently), when the merge loop closes ch on retiring the
// connection — answering the reader's refusal, if one is queued on
// refused, with an Error frame first — or, for a session that ends
// abnormally with the connection still live, on done, after draining
// any confirmation the merge loop queued before ending. It closes conn
// on the way out; after a confirmed Bye or a refusal it is the
// connection's last user.
func ackWriter(conn net.Conn, ch <-chan int64, refused <-chan error, resume int64, done <-chan struct{}) {
	defer conn.Close()
	w := bufio.NewWriter(conn)
	if err := writeFrame(w, frameHelloOK, appendBoundary(nil, resume)); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		return
	}
	var ack []byte // Ack payload scratch
	write := func(b int64, ok bool) bool {
		if !ok { // retired
			select {
			case err := <-refused:
				writeError(w, errCodeOther, err)
			default:
			}
			return false
		}
		typ := byte(frameAck)
		var payload []byte
		if b == byeOKSentinel {
			typ = frameByeOK
		} else {
			ack = appendBoundary(ack[:0], b)
			payload = ack
		}
		if err := writeFrame(w, typ, payload); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	for {
		select {
		case b, ok := <-ch:
			if !write(b, ok) {
				return
			}
		case <-done:
			// Nothing further is owed, but a confirmation the merge loop
			// queued just before the session ended must still go out.
			for {
				select {
				case b, ok := <-ch:
					if !write(b, ok) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// pushLatest delivers b on a capacity-1 channel, displacing a pending
// older value — acks are cumulative, only the newest matters.
func pushLatest(ch chan int64, b int64) {
	for {
		select {
		case ch <- b:
			return
		default:
		}
		select {
		case <-ch:
		default:
		}
	}
}

// merge is the collector's heart: a single goroutine that owns all
// session state, closes every ready boundary, and applies one event at
// a time.
func (c *Collector) merge(ctx context.Context, s *session, emit func(*core.Report) error) error {
	for {
		for {
			b, ok := s.minQueued()
			if !ok || !s.ready(b, c.cc.Policy) {
				break
			}
			s.stopHold()
			if err := c.closeBoundary(s, b, emit); err != nil {
				return err
			}
		}
		c.armHold(s)

		if s.finished() {
			if c.fwd != nil {
				// A relay ends silently: the empty-stream parity report is
				// the root's to emit, once, for the whole tree.
				return nil
			}
			if s.emitted == 0 {
				// Parity with a single process over an empty stream: its
				// engine still flushes one (empty) final interval on
				// Close.
				rep, err := c.primary.EndInterval()
				if err != nil {
					return err
				}
				return emit(rep)
			}
			return nil
		}

		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev := <-s.events:
			if err := c.handleEvent(s, ev, ctx); err != nil {
				return err
			}
		}
	}
}

// minQueued returns the smallest queued boundary across all agents.
func (s *session) minQueued() (int64, bool) {
	var b int64
	ok := false
	for _, st := range s.ag {
		if len(st.queue) > 0 && (!ok || st.queue[0].boundary < b) {
			b = st.queue[0].boundary
			ok = true
		}
	}
	return b, ok
}

// blocks reports whether the agent's state forbids closing a boundary
// it has no queued frame for yet.
func (a *agentState) blocks(policy PartialPolicy) bool {
	if len(a.queue) > 0 {
		return false // its earliest frame is known; at worst it skips this boundary
	}
	switch a.status {
	case statusLive, statusPending:
		return true
	case statusDown:
		return policy == HoldWithTimeout
	default: // dead, bye
		return false
	}
}

// ready reports whether boundary b can close now: no agent that might
// still contribute to it is missing its frame.
func (s *session) ready(_ int64, policy PartialPolicy) bool {
	for _, st := range s.ag {
		if st.blocks(policy) {
			return false
		}
	}
	return true
}

// finished reports session completion: every agent ended or abandoned,
// nothing left to absorb.
func (s *session) finished() bool {
	for _, st := range s.ag {
		if len(st.queue) > 0 {
			return false
		}
		if st.status != statusBye && st.status != statusDead {
			return false
		}
	}
	return true
}

// stopHold disarms the hold timer.
func (s *session) stopHold() {
	if s.holdTimer != nil {
		s.holdTimer.Stop()
		s.holdTimer = nil
	}
	s.holdFor = -1
}

// armHold arms the partial-interval timer when a pending boundary is
// blocked. The blocker may be connected: a hung agent keeps its socket
// open and sends nothing, and must not hold every boundary forever.
func (c *Collector) armHold(s *session) {
	if c.cc.Policy != HoldWithTimeout || c.cc.HoldTimeout <= 0 {
		return
	}
	b, ok := s.minQueued()
	if !ok || s.ready(b, c.cc.Policy) {
		s.stopHold()
		return
	}
	if s.holdFor == b {
		return // already armed for this boundary
	}
	s.stopHold()
	s.holdFor = b
	boundary := b
	s.holdTimer = time.AfterFunc(c.cc.HoldTimeout, func() {
		select {
		case s.events <- event{kind: evHoldTimeout, boundary: boundary}:
		case <-s.done:
		}
	})
}

// recycle puts a decoder whose frame was absorbed or dropped on the
// agent's free list.
func (a *agentState) recycle(d *intervalDecoder) {
	select {
	case a.free <- d:
	default:
	}
}

// refund returns one ingest credit to the agent's current connection.
func (a *agentState) refund() {
	if a.credits == nil {
		return
	}
	select {
	case a.credits <- struct{}{}:
	default:
	}
}

// retireConn drops the agent's current connection (if any), terminating
// its ack writer and invalidating in-flight events from its reader.
func (a *agentState) retireConn() {
	if a.conn != nil {
		close(a.ackCh)
		a.conn.Close()
		a.conn, a.ackCh = nil, nil
	}
	a.credits = nil
	a.gen++
}

// handOffConn ends the agent's connection through its ack writer,
// which sends what is still owed — the ByeOK confirmation after a Bye,
// the Error reply to a refused frame — then exits and closes the
// connection itself. Closing here would race that frame off the wire:
// a lost ByeOK leaves the agent's Close redialing a session that already
// ended, and a lost refusal has the agent replay the refused frame.
func (a *agentState) handOffConn() {
	if a.conn != nil {
		close(a.ackCh)
		a.conn, a.ackCh = nil, nil // the ack writer owns closing conn
	}
	a.credits = nil
	a.gen++
}

// closeBoundary is the one interval close. It absorbs every agent's
// frame for boundary b in agent-ID order, refunding each agent's ingest
// credit as it goes, and works out the leaf agents the boundary closes
// without. Then the root closes detection on the merged interval and
// emits the report, while a relay drains the merged interval and ships
// it upstream. Last it settles the agents up to b: after the checkpoint
// write when there is one, or, at a relay without one, as far as its
// parent has acked. An acked frame is never one a restart would need
// again. A root without a checkpoint acked its agents' frames when it
// queued them (see ackLine).
func (c *Collector) closeBoundary(s *session, b int64, emit func(*core.Report) error) error {
	var frameMissing []int
	for id, st := range s.ag {
		if len(st.queue) == 0 || st.queue[0].boundary != b {
			continue
		}
		fr := st.queue[0]
		if err := c.primary.AbsorbOpenInterval(fr.oi); err != nil {
			return fmt.Errorf("wire: absorbing agent %d: %w", id, err)
		}
		frameMissing = append(frameMissing, fr.missing...)
		st.recycle(fr.dec) // the absorb copied everything out of it
		st.queue[0] = queuedFrame{}
		st.queue = st.queue[1:]
		st.absorbed = b
		st.emittedAtAbsorb = s.emitted + 1
		st.refund()
		c.met.Agent(id).SetQueueDepth(int64(len(st.queue)))
	}

	if c.fwd == nil {
		rep, err := c.primary.EndInterval()
		if err != nil {
			return err
		}
		rep.Partial = s.missingFor(b, frameMissing, 0)
		if err := emit(rep); err != nil {
			return err
		}
	} else {
		missing := s.missingFor(b, frameMissing, c.fwd.spanLo)
		oi := c.primary.DrainOpenInterval()
		shipped, err := c.fwd.agent.shipRelayInterval(b, c.fwd.spanLo, c.fwd.spanLen, missing, oi)
		c.primary.RecycleOpenInterval(oi) // the ship encoded it
		if err != nil {
			return fmt.Errorf("wire: forwarding boundary %d: %w", b, err)
		}
		if shipped {
			c.met.IncFramesRelayed()
		}
		c.met.SetFramesHeld(int64(c.fwd.agent.unackedFrames()))
	}
	s.lastClosed = b
	s.emitted++
	c.met.SetLastClosed(b)
	c.met.IncEmitted()
	for id, st := range s.ag {
		c.met.Agent(id).SetLag(s.emitted - st.emittedAtAbsorb)
	}

	// Settle the agents. A checkpoint makes b durable here; a relay
	// without one may settle only what its parent has acked
	// (ack-after-upstream), and evUpstreamAck catches the rest up.
	s.acked = b
	if c.cc.CheckpointPath != "" {
		if err := c.writeCheckpoint(s); err != nil {
			return err
		}
	} else if c.fwd != nil {
		s.acked = min(c.fwd.agent.Acked(), b)
	}
	c.ackChildren(s)
	return nil
}

// writeCheckpoint persists the session's durable state: the config
// digest and the session table, then the root's detection history or
// the relay's unacked upstream frames.
func (c *Collector) writeCheckpoint(s *session) error {
	cp := checkpoint{
		digest:     c.digest,
		lastClosed: s.lastClosed,
		emitted:    s.emitted,
		absorbed:   make([]int64, len(s.ag)),
		statuses:   make([]agentStatus, len(s.ag)),
	}
	for id, st := range s.ag {
		cp.absorbed[id] = st.absorbed
		cp.statuses[id] = st.status
	}
	if c.fwd != nil {
		cp.relay, cp.held = true, c.fwd.agent.replayState()
	} else {
		cp.hist = c.primary.Snapshot()
	}
	return writeCheckpointFile(c.cc.CheckpointPath, cp)
}

// handleEvent applies one event to the session. Only accept and
// hold-timeout handling can end the session; connection-scoped failures
// retire the connection and reclassify the agent instead.
func (c *Collector) handleEvent(s *session, ev event, ctx context.Context) error {
	switch ev.kind {
	case evHello:
		c.handleHello(s, ev)
	case evFrame:
		st := s.ag[ev.id]
		if ev.gen != st.gen {
			st.recycle(ev.frame.dec)
			return nil // stale connection; its frames replay on the new one
		}
		if ev.frame.spanLen > 0 {
			// The agent is itself a relay; remember its leaf span so
			// Partial attribution can name its leaves if it goes silent.
			st.spanLo, st.spanLen = ev.frame.spanLo, ev.frame.spanLen
		}
		if st.status == statusDead {
			// A hold timeout gave up on the agent while it stayed
			// connected; it ships again. A backlog it replays is all
			// late, so any frame, queued or dropped, makes it live.
			st.status = statusLive
			c.met.Agent(ev.id).SetStatus(metrics.StatusLive)
		}
		if ev.boundary <= s.lastClosed || ev.boundary <= st.tail() {
			// Already held or already closed: drop and re-ack (up to the
			// settled line — never past an upstream ack a relay is still
			// waiting for) so the agent trims its replay buffer.
			if ev.boundary > st.absorbed && ev.boundary <= s.lastClosed {
				c.met.Agent(ev.id).IncLateDrops()
			} else {
				c.met.Agent(ev.id).IncDupDrops()
			}
			st.recycle(ev.frame.dec)
			st.refund()
			c.ack(s, ev.id)
			return nil
		}
		st.queue = append(st.queue, ev.frame)
		c.met.Agent(ev.id).SetQueueDepth(int64(len(st.queue)))
		c.ack(s, ev.id)
	case evBye:
		st := s.ag[ev.id]
		if ev.gen != st.gen {
			return nil
		}
		if st.conn != nil {
			s.forget(st.conn) // the ack writer closes it after the ByeOK
			pushLatest(st.ackCh, byeOKSentinel)
		}
		st.handOffConn()
		st.status = statusBye
		c.met.Agent(ev.id).SetStatus(metrics.StatusBye)
	case evConnErr:
		st := s.ag[ev.id]
		if ev.gen != st.gen {
			return nil
		}
		if errors.As(ev.err, new(refusal)) {
			s.forget(st.conn) // the ack writer closes it after the Error reply
			st.handOffConn()
		} else {
			st.retireConn()
		}
		if c.cc.Policy == CloseWithout {
			st.status = statusDead
		} else {
			st.status = statusDown
		}
		c.met.Agent(ev.id).SetStatus(st.status.metricsName())
	case evAcceptErr:
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("wire: accepting agent connection: %w", ev.err)
	case evHoldTimeout:
		if s.holdFor != ev.boundary {
			return nil // stale timer; the boundary already closed or moved
		}
		s.stopHold()
		for id, st := range s.ag {
			if st.blocks(c.cc.Policy) {
				st.status = statusDead
				c.met.Agent(id).SetStatus(metrics.StatusDead)
			}
		}
	case evUpstreamAck:
		c.met.SetFramesHeld(int64(c.fwd.agent.unackedFrames()))
		if c.cc.CheckpointPath == "" {
			// Ack-after-upstream: children settle only once the merged
			// frames containing their boundaries are acked by the parent.
			if line := min(ev.boundary, s.lastClosed); line > s.acked {
				s.acked = line
				c.ackChildren(s)
			}
		}
	}
	return nil
}

// handleHello validates a handshake and, on success, attaches the
// connection as the agent's current one — newest wins: a replacement
// connection supersedes and closes the previous, since the legitimate
// owner of an agent ID is whoever can still dial (a half-open TCP
// remnant must not lock a restarted agent out).
func (c *Collector) handleHello(s *session, ev event) {
	h := ev.hello
	if h.agentID < 0 || h.agentID >= len(s.ag) {
		ev.reply <- helloReply{
			err:  fmt.Errorf("agent ID %d out of range [0,%d)", h.agentID, len(s.ag)),
			code: errCodeBadAgentID,
		}
		return
	}
	if h.digest != c.digest {
		ev.reply <- helloReply{
			err:  fmt.Errorf(configMismatchFormat, h.digest, c.digest),
			code: errCodeConfigMismatch,
		}
		return
	}
	st := s.ag[h.agentID]
	if st.status == statusBye {
		ev.reply <- helloReply{
			err:  fmt.Errorf("agent %d already ended its stream", h.agentID),
			code: errCodeSessionEnded,
		}
		return
	}
	if st.status != statusPending {
		c.met.Agent(h.agentID).IncReconnects()
	}
	st.retireConn()
	st.conn = ev.conn
	st.status = statusLive
	st.credits = make(chan struct{}, queueCap)
	for i := 0; i < queueCap; i++ {
		st.credits <- struct{}{}
	}
	resume := st.tail()
	st.sent = resume
	st.ackCh = make(chan int64, 1)
	refused := make(chan error, 1)
	s.writers.Add(1)
	ch := st.ackCh
	go func() {
		defer s.writers.Done()
		ackWriter(ev.conn, ch, refused, resume, s.done)
	}()
	c.met.Agent(h.agentID).SetLastAcked(resume)
	c.met.Agent(h.agentID).SetStatus(metrics.StatusLive)
	ev.reply <- helloReply{gen: st.gen, credits: st.credits, free: st.free, refused: refused}
}
