package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"anomalyx/internal/core"
)

// AgentOptions parameterizes the survivable agent session: the redial
// policy and the replay-buffer bound. The zero value is a working
// default (8 redials with jittered backoff, 64 buffered frames).
type AgentOptions struct {
	// Retry is the redial policy after a lost connection; see
	// RetryConfig for zero-value defaults.
	Retry RetryConfig
	// ReplayBuffer bounds how many shipped-but-unacked interval frames
	// the agent retains for replay after a reconnect. When the buffer
	// is full, shipping blocks until the collector acks (backpressure
	// through the engine) — frames are never silently dropped. The
	// collector acks at its commit point (see Acked), so against a root
	// without a checkpoint even a one-frame buffer runs ahead of the
	// root's close, as far as the root's ingest credit allows. 0 takes
	// the default (64); DialAgent refuses a negative bound.
	ReplayBuffer int
	// Dialer opens a new collector connection for the initial connect
	// and every redial; nil dials DialAgent's addr over TCP.
	Dialer func() (net.Conn, error)
}

// withDefaults resolves the zero values.
func (o AgentOptions) withDefaults() AgentOptions {
	o.Retry = o.Retry.withDefaults()
	if o.ReplayBuffer == 0 {
		o.ReplayBuffer = 64
	}
	return o
}

// replayEntry is one shipped interval frame retained until acked: the
// frame type, its grid boundary, and the encoded payload ready to be
// rewritten verbatim on a replacement connection.
type replayEntry struct {
	typ      byte
	boundary int64
	payload  []byte
}

// Agent is the sending half of the protocol: it owns one logical stream
// to a collector that survives connection loss. Shipped interval frames
// stay in a bounded replay buffer until the collector acks their
// boundary; on a broken connection the agent redials with jittered
// exponential backoff, re-Hellos with a resume offset, and resends the
// unacked frames — the collector deduplicates, so the report stream is
// unaffected by drops and reconnects (determinism: replayed boundaries
// absorb exactly once, in the same agent-ID order as an undisturbed
// run). Methods are serialized by an internal mutex; frames appear on
// each connection in ship order, the per-agent boundary monotonicity
// the collector checks.
type Agent struct {
	id     int
	digest uint64
	opts   AgentOptions
	// spanLo and spanLen are the global leaf span a relay's hellos
	// declare; empty for a plain agent.
	spanLo, spanLen int
	rng             *rand.Rand // jitter source seeded with id; never influences report bytes

	// shipMu serializes ship calls. A ship encodes its frame without
	// holding mu, so acks and reconnects proceed meanwhile; enc is the
	// encoder scratch, owned by whoever holds shipMu.
	shipMu sync.Mutex
	enc    encoder

	mu   sync.Mutex
	cond *sync.Cond // signals ack progress and connection-state changes
	conn net.Conn   // nil while disconnected
	w    *bufio.Writer
	gen  int // connection generation; stale readLoops see a mismatch and exit

	replay     []replayEntry // unacked frames, boundary ascending
	acked      int64         // highest collector-acked boundary
	reconnects int
	permErr    error // the stream is dead after it
	closed     bool
	byeOK      bool // the collector confirmed our Bye
	// free holds the payloads of acked frames for the next ships to
	// encode into, at most maxFreePayloads of them.
	free [][]byte
}

// maxFreePayloads bounds the agent's free list of frame payloads. Two
// cover the steady state of a one-frame replay buffer: one in flight
// awaiting its ack while the next is encoded into the other.
const maxFreePayloads = 2

// DialAgent connects to a collector at addr, performs the handshake
// for the given agent ID, and returns the ready agent. cfg must be the
// pipeline configuration the collector was started with (its detection
// digest is what the handshake carries; a mismatch surfaces as a
// *ConfigMismatchError). The initial connect uses the same retry policy
// as redials, so an agent may come up before its collector.
func DialAgent(addr string, agentID int, cfg core.Config, opts AgentOptions) (*Agent, error) {
	if agentID < 0 {
		return nil, fmt.Errorf("wire: negative agent ID %d", agentID)
	}
	if opts.ReplayBuffer < 0 {
		return nil, fmt.Errorf("wire: negative ReplayBuffer %d", opts.ReplayBuffer)
	}
	a := newAgent(addr, agentID, cfg, opts)
	if err := a.connect(); err != nil {
		return nil, err
	}
	return a, nil
}

// newAgent builds an unconnected agent with opts' zero values resolved
// (a nil Dialer dials addr over TCP); the caller connects.
func newAgent(addr string, agentID int, cfg core.Config, opts AgentOptions) *Agent {
	opts = opts.withDefaults()
	if opts.Dialer == nil {
		opts.Dialer = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	a := &Agent{
		id:     agentID,
		digest: configDigest(cfg),
		opts:   opts,
		rng:    rand.New(rand.NewSource(int64(agentID))),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// redialAttempts resolves the configured redial budget: negative
// MaxAttempts disables reconnection.
func (a *Agent) redialAttempts() int {
	if a.opts.Retry.MaxAttempts < 0 {
		return 0
	}
	return a.opts.Retry.MaxAttempts
}

// handshakeLocked performs the handshake on conn — Hello carrying
// the resume offset (the highest acked boundary), then the collector's
// HelloOK or Error reply — trims the replay buffer to the collector's
// resume line, resends the remaining unacked frames in boundary order,
// and installs conn as the live connection with a fresh read loop.
// a.mu must be held. On error the caller owns closing conn.
func (a *Agent) handshakeLocked(conn net.Conn) error {
	w := bufio.NewWriter(conn)
	h := hello{agentID: a.id, resume: a.acked, spanLo: a.spanLo, spanLen: a.spanLen, digest: a.digest}
	if err := writeFrame(w, frameHello, appendHello(nil, h)); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("wire: sending hello: %w", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("wire: reading hello reply: %w", err)
	}
	switch typ {
	case frameHelloOK:
	case frameError:
		return decodeError(payload)
	default:
		return fmt.Errorf("wire: expected hello reply, got frame type %d", typ)
	}
	resume, err := decodeBoundary(payload)
	if err != nil {
		return err
	}
	a.ackLocked(resume) // frames at or below the collector's line are settled
	for i := range a.replay {
		if err := writeFrame(w, a.replay[i].typ, a.replay[i].payload); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("wire: replaying unacked frames: %w", err)
	}
	a.conn, a.w = conn, w
	a.gen++
	go a.readLoop(conn, a.gen)
	return nil
}

// reconnectLocked redials up to attempts times with jittered backoff,
// handshaking each new connection; it settles permErr when the budget
// is exhausted or the collector rejects the stream. a.mu must be held.
func (a *Agent) reconnectLocked(attempts int) error {
	var lastErr error = fmt.Errorf("wire: agent %d: reconnection disabled", a.id)
	for attempt := 0; attempt < attempts; attempt++ {
		if a.closed {
			return fmt.Errorf("wire: agent %d closed", a.id)
		}
		delay := a.opts.Retry.backoff(attempt, a.rng)
		a.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		conn, err := a.opts.Dialer()
		a.mu.Lock()
		if a.closed {
			if err == nil {
				conn.Close()
			}
			return fmt.Errorf("wire: agent %d closed", a.id)
		}
		if err != nil {
			lastErr = err
			continue
		}
		if err := a.handshakeLocked(conn); err != nil {
			conn.Close()
			var mismatch *ConfigMismatchError
			if errors.As(err, &mismatch) || errors.Is(err, errSessionEnded) {
				a.permErr = err
				a.cond.Broadcast()
				return err
			}
			lastErr = err
			continue
		}
		a.reconnects++
		return nil
	}
	a.permErr = fmt.Errorf("wire: agent %d: collector unreachable after %d attempts: %w",
		a.id, attempts, lastErr)
	a.cond.Broadcast()
	return a.permErr
}

// ackLocked advances the cumulative ack line to boundary and drops the
// settled prefix of the replay buffer. a.mu must be held.
func (a *Agent) ackLocked(boundary int64) {
	if boundary <= a.acked {
		return
	}
	a.acked = boundary
	n := 0
	for n < len(a.replay) && a.replay[n].boundary <= boundary {
		if len(a.free) < maxFreePayloads {
			a.free = append(a.free, a.replay[n].payload[:0])
		}
		n++
	}
	if n > 0 {
		m := copy(a.replay, a.replay[n:])
		clear(a.replay[m:])
		a.replay = a.replay[:m]
	}
	a.cond.Broadcast()
}

// readLoop consumes the collector→agent side of one connection: Ack
// frames advance the ack line, an Error frame kills the stream, and a
// read failure marks the connection lost (the next ship redials).
func (a *Agent) readLoop(conn net.Conn, gen int) {
	br := bufio.NewReader(conn)
	var buf []byte // payload buffer, reused ack to ack
	for {
		typ, payload, err := readFrameInto(br, buf)
		buf = payload
		a.mu.Lock()
		if gen != a.gen || a.closed {
			a.mu.Unlock()
			return // a newer connection took over, or Close ran
		}
		if err != nil {
			a.conn, a.w = nil, nil
			a.cond.Broadcast()
			a.mu.Unlock()
			conn.Close()
			return
		}
		switch typ {
		case frameAck:
			if b, derr := decodeBoundary(payload); derr == nil {
				a.ackLocked(b)
			}
		case frameByeOK:
			a.byeOK = true
			a.cond.Broadcast()
		case frameError:
			a.permErr = decodeError(payload)
			a.conn, a.w = nil, nil
			a.cond.Broadcast()
			a.mu.Unlock()
			conn.Close()
			return
		default:
			// Unknown collector frames are skipped for forward
			// compatibility; the length prefix delimits them.
		}
		a.mu.Unlock()
	}
}

// ShipOpenInterval sends one drained interval (see
// Pipeline.DrainOpenInterval) tagged with its absolute grid boundary
// (Unix ms). The frame enters the replay buffer first and leaves it
// only when the collector acks the boundary, so a connection lost at
// any point is survivable: the agent redials and replays per the retry
// policy, blocking (backpressure) rather than dropping when the buffer
// is full. Boundaries must be positive and strictly increasing per
// agent. A permanent failure — retry budget exhausted, config mismatch
// — is returned and sticks. oi is encoded before ShipOpenInterval
// returns and not referenced afterwards, so the caller may reuse its
// memory at once.
func (a *Agent) ShipOpenInterval(boundary int64, oi core.OpenInterval) error {
	_, err := a.ship(boundary, frameOpenInterval, func(b []byte) []byte {
		return a.enc.appendOpenInterval(b, oi)
	}, false)
	return err
}

// ship is the delivery path: check the boundary, encode, wait for replay
// space, enter the replay buffer, write or redial. The frame is encoded
// into a recycled payload before the wait and without holding a.mu, so
// with a full replay buffer frame k+1 is encoded while the collector is
// still closing frame k; it is still written only once k's ack has made
// room. It has one extra mode for relays: when skipStale is set, a
// boundary at or below the collector's ack line (or the replay-buffer
// tail) returns (false, nil) instead of an error — a resumed relay
// legitimately re-closes boundaries its parent already holds, and must
// settle its children for them without resending.
func (a *Agent) ship(boundary int64, typ byte, encodeBody func([]byte) []byte, skipStale bool) (bool, error) {
	a.shipMu.Lock()
	defer a.shipMu.Unlock()
	a.mu.Lock()
	if ok, err := a.shippableLocked(boundary, skipStale); !ok {
		a.mu.Unlock()
		return false, err
	}
	var payload []byte
	if n := len(a.free); n > 0 {
		payload, a.free[n-1] = a.free[n-1], nil
		a.free = a.free[:n-1]
	}
	a.mu.Unlock()

	payload = appendVarint(payload, boundary)
	payload = append(payload, codecVersion)
	payload = encodeBody(payload)

	a.mu.Lock()
	defer a.mu.Unlock()
	// Wait for replay space; acks free it, a dead connection has to be
	// redialed first for them to arrive.
	for {
		if a.closed {
			return false, fmt.Errorf("wire: agent %d closed", a.id)
		}
		if a.permErr != nil {
			return false, a.permErr
		}
		if len(a.replay) < a.opts.ReplayBuffer {
			break
		}
		if a.conn == nil {
			if err := a.reconnectLocked(a.redialAttempts()); err != nil {
				return false, err
			}
			continue
		}
		a.cond.Wait()
	}
	if skipStale && boundary <= a.acked {
		// The ack line moved past this boundary while waiting for replay
		// space (a reconnect handshake can advance it): already settled.
		return false, nil
	}

	entry := replayEntry{typ: typ, boundary: boundary, payload: payload}
	a.replay = append(a.replay, entry)

	if a.conn == nil {
		// The reconnect handshake replays the whole buffer, the new
		// entry included.
		return true, a.reconnectLocked(a.redialAttempts())
	}
	if err := writeFrame(a.w, entry.typ, entry.payload); err == nil {
		if err = a.w.Flush(); err == nil {
			return true, nil
		}
	}
	// The write broke the connection; the entry is safe in the replay
	// buffer, so redialing both repairs the stream and resends it.
	a.dropConnLocked()
	return true, a.reconnectLocked(a.redialAttempts())
}

// shippableLocked applies ship's entry checks: the agent is open and
// healthy, and boundary lies beyond both the ack line and the replay
// tail. With skipStale a stale boundary reports (false, nil). a.mu must
// be held; ship serializes on shipMu, so nothing but acks moves the
// lines between this check and the frame's entry.
func (a *Agent) shippableLocked(boundary int64, skipStale bool) (bool, error) {
	if a.closed {
		return false, fmt.Errorf("wire: agent %d closed", a.id)
	}
	if a.permErr != nil {
		return false, a.permErr
	}
	if boundary <= a.acked {
		if skipStale {
			return false, nil
		}
		if boundary <= 0 {
			return false, fmt.Errorf("wire: agent %d boundary %d: the protocol carries positive grid boundaries only", a.id, boundary)
		}
		return false, fmt.Errorf("wire: agent %d boundary %d not after acked %d", a.id, boundary, a.acked)
	}
	if n := len(a.replay); n > 0 && boundary <= a.replay[n-1].boundary {
		if skipStale {
			return false, nil
		}
		return false, fmt.Errorf("wire: agent %d boundary %d not after %d", a.id, boundary, a.replay[n-1].boundary)
	}
	return true, nil
}

// shipRelayInterval ships a relay's merged interval upstream as a
// frameRelayInterval, with ShipOpenInterval's delivery semantics plus
// stale-skip:
// the reported bool is false when the boundary was already settled
// upstream (acked or still buffered from before a resume) and nothing
// was sent. spanLo/spanLen describe the relay's global leaf span and
// missing lists the in-span leaf IDs this boundary closed without.
func (a *Agent) shipRelayInterval(boundary int64, spanLo, spanLen int, missing []int, oi core.OpenInterval) (bool, error) {
	return a.ship(boundary, frameRelayInterval, func(b []byte) []byte {
		b = appendRelayHeader(b, spanLo, spanLen, missing)
		return a.enc.appendOpenInterval(b, oi)
	}, true)
}

// connect performs the initial dial-and-handshake.
func (a *Agent) connect() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reconnectLocked(max(1, a.redialAttempts()))
}

// waitAckedAbove blocks until the collector's cumulative ack line
// exceeds prev, returning the new line. ok=false means no further
// progress will come: the agent was closed or its stream failed
// permanently with the line still at or below prev.
func (a *Agent) waitAckedAbove(prev int64) (line int64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.acked <= prev && !a.closed && a.permErr == nil {
		a.cond.Wait()
	}
	return a.acked, a.acked > prev
}

// unackedFrames returns how many shipped frames await an upstream ack.
func (a *Agent) unackedFrames() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.replay)
}

// replayState copies the unacked replay entries, boundary ascending —
// what a relay checkpoint must persist so a restart can re-offer them.
// The payloads are copied too: once acked, a payload is recycled into
// a later frame.
func (a *Agent) replayState() []replayEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append([]replayEntry(nil), a.replay...)
	for i := range out {
		out[i].payload = append([]byte(nil), out[i].payload...)
	}
	return out
}

// preloadReplay seeds the replay buffer from a relay checkpoint before
// the first dial. The handshake's HelloOK line then trims whatever the
// collector already holds and resends the rest.
func (a *Agent) preloadReplay(entries []replayEntry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.replay = append(a.replay[:0], entries...)
}

// abort ends the agent without the Bye handshake: the stream is not
// cleanly finished — a relay session failed mid-flight — and the
// collector must keep treating this agent as resumable (statusDown, not
// statusBye). Unacked frames are deliberately left undelivered; a
// checkpointed restart re-offers them.
func (a *Agent) abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	a.gen++
	if a.conn != nil {
		a.conn.Close()
		a.conn, a.w = nil, nil
	}
	a.cond.Broadcast()
}

// dropConnLocked closes and forgets the current connection. a.mu must
// be held.
func (a *Agent) dropConnLocked() {
	if a.conn != nil {
		a.conn.Close()
		a.conn, a.w = nil, nil
		a.gen++ // retire the read loop
	}
}

// Acked returns the highest boundary the collector has acknowledged:
// every frame at or below it has reached the collector's commit point,
// so the agent never needs to resend it. That point is where the frame
// is as durable as the collector makes it: queued, at a root without a
// checkpoint; in a written checkpoint, with one; acked by its own
// parent, at a relay without one.
func (a *Agent) Acked() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acked
}

// Close ends the stream: it sends the Bye frame, waits for the
// collector's ByeOK confirmation (a checkpointed collector sends it once
// a checkpoint holds the agent's frames), and closes the connection. The
// final partial interval must already have been shipped (a shipping
// engine's Close flushes it, so close the agent after the engine). Delivery
// is at-least-once end to end: a connection that dies before the
// confirmation — unacked frames included — is redialed per the retry
// policy and the Bye resent, so a collector holding the session open
// for this agent always learns it ended.
func (a *Agent) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	var err error
	if a.permErr == nil {
		err = a.sendByeLocked()
	}
	a.closed = true
	a.gen++
	if a.conn != nil {
		if cerr := a.conn.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("wire: closing agent connection: %w", cerr)
		}
		a.conn, a.w = nil, nil
	}
	a.cond.Broadcast()
	return err
}

// sendByeLocked delivers the end-of-stream marker reliably: write Bye,
// wait until the collector confirms it with ByeOK, and if the
// connection dies first, redial (replaying any unacked frames) and
// resend. Without the confirmation a Bye swallowed by a dying
// connection would leave the collector waiting forever for an agent
// that already exited. a.mu must be held.
func (a *Agent) sendByeLocked() error {
	for {
		if a.conn == nil {
			if err := a.reconnectLocked(a.redialAttempts()); err != nil {
				if errors.Is(err, errSessionEnded) {
					return nil // the Bye landed; only its confirmation was lost
				}
				return err
			}
		}
		if err := writeFrame(a.w, frameBye, nil); err == nil {
			if err = a.w.Flush(); err == nil {
				for !a.byeOK && a.conn != nil && a.permErr == nil {
					a.cond.Wait()
				}
				if a.permErr != nil {
					return a.permErr
				}
				if a.byeOK {
					return nil
				}
				continue // connection died before ByeOK; resend
			}
		}
		a.dropConnLocked()
	}
}
