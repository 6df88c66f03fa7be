package wire

import (
	"bufio"
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

// Agent is the sending half of the protocol: it drives one logical stream
// to a collector that survives connection loss, its core (stream.go)
// making every protocol decision. Shipped interval frames stay in a
// bounded replay buffer until the collector acks their boundary; on a
// broken connection the agent redials with jittered exponential backoff,
// re-Hellos with a resume offset, and resends the unacked frames, which
// the collector deduplicates: replayed boundaries absorb exactly once, in
// the same agent-ID order as an undisturbed run. Methods are serialized
// by an internal mutex; frames appear on each connection in ship order.
type Agent struct {
	opts AgentOptions // MaxAttempts resolved: 0 disables redials
	rng  *rand.Rand   // jitter source seeded with id; never influences report bytes

	// shipMu serializes ship calls. A ship encodes its frame without
	// holding mu, so acks and reconnects proceed meanwhile; enc is the
	// encoder scratch, owned by whoever holds shipMu.
	shipMu sync.Mutex
	enc    encoder

	mu   sync.Mutex
	s    stream
	cond *sync.Cond // signals what the read loop fed s
	conn net.Conn   // nil while disconnected
	w    *bufio.Writer
	gen  int // connection generation; stale readLoops see a mismatch and exit
	// acks, when set, receives the ack line after every collector frame,
	// newest wins: a relay's merge loop selects on it.
	acks chan int64
}

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
	opts.Retry.MaxAttempts = max(0, opts.Retry.MaxAttempts)
	if opts.Dialer == nil {
		opts.Dialer = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	a := &Agent{opts: opts, rng: rand.New(rand.NewSource(int64(agentID))),
		s: newStream(agentID, configDigest(cfg), opts.ReplayBuffer)}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// connect performs the initial dial-and-handshake, then resends what a
// relay checkpoint preloaded.
func (a *Agent) connect() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reconnectLocked(max(1, a.opts.Retry.MaxAttempts))
	return a.driveLocked()
}

// drive runs the core's steps outside a ship or Close: a relay's merge
// loop calls it when its face reports progress or a lost link.
func (a *Agent) drive() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.driveLocked()
}

// driveLocked carries out the core's steps — dial, write, or wait for the
// read loop — until it asks for nothing more. a.mu must be held.
func (a *Agent) driveLocked() error {
	for {
		switch a.s.step() {
		case stepIdle:
			return a.s.err
		case stepDial:
			a.reconnectLocked(a.opts.Retry.MaxAttempts)
		case stepSend:
			frames, bye := a.s.unsent()
			for _, e := range frames {
				writeFrame(a.w, e.typ, e.payload) // a bufio.Writer's error sticks: Flush reports it
			}
			if bye {
				writeFrame(a.w, frameBye, nil)
			}
			if a.w.Flush() != nil {
				a.dropConnLocked() // the frames stay held: the core redials next
			} else {
				a.s.wrote()
			}
		case stepWait:
			a.cond.Wait()
		}
	}
}

// reconnectLocked redials up to attempts times with jittered backoff
// until a handshake installs a live connection or the stream finishes;
// an exhausted budget fails the stream. a.mu must be held.
func (a *Agent) reconnectLocked(attempts int) {
	var lastErr error = fmt.Errorf("wire: agent %d: reconnection disabled", a.s.id)
	for attempt := 0; attempt < attempts; attempt++ {
		delay := a.opts.Retry.backoff(attempt, a.rng)
		a.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		conn, err := a.opts.Dialer()
		a.mu.Lock()
		if err == nil {
			if !a.s.finished() {
				if err = a.handshakeLocked(conn); err == nil {
					return
				}
			}
			conn.Close()
		}
		if a.s.finished() {
			return // closed meanwhile, refused for good, or the refusal confirmed the Bye
		}
		lastErr = err
	}
	a.s.err = fmt.Errorf("wire: agent %d: collector unreachable after %d attempts: %w", a.s.id, attempts, lastErr)
	a.cond.Broadcast()
}

// handshakeLocked sends the Hello, hands the reply to the core, and
// starts conn's read loop; the caller closes conn on error.
func (a *Agent) handshakeLocked(conn net.Conn) error {
	w := bufio.NewWriter(conn)
	writeFrame(w, frameHello, appendHello(nil, a.s.hello())) // Flush reports its error
	if err := w.Flush(); err != nil {
		return fmt.Errorf("wire: sending hello: %w", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("wire: reading hello reply: %w", err)
	}
	if err := a.s.resume(typ, payload); err != nil {
		return err
	}
	a.conn, a.w = conn, w
	a.gen++
	go a.readLoop(conn, a.gen)
	a.progressLocked()
	return nil
}

// progressLocked wakes the drive loops after the core took a collector
// frame, and hands a relay's merge loop the ack line. a.mu must be held.
func (a *Agent) progressLocked() {
	a.cond.Broadcast()
	if a.acks != nil {
		pushLatest(a.acks, a.s.acked)
	}
}

// readLoop feeds the core the collector→agent side of one connection. A
// read failure, or a frame after which the core drops the connection,
// marks it lost.
func (a *Agent) readLoop(conn net.Conn, gen int) {
	br := bufio.NewReader(conn)
	var buf []byte // payload buffer, reused ack to ack
	for {
		typ, payload, err := readFrameInto(br, buf)
		buf = payload
		a.mu.Lock()
		if gen != a.gen {
			a.mu.Unlock()
			return // a newer connection took over, or Close ran
		}
		if err != nil || !a.s.received(typ, payload) {
			a.dropConnLocked()
		}
		a.progressLocked()
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
	})
	return err
}

// ship is the delivery path: the core's entry checks, encode, then drive
// the core until the frame is written. The frame is encoded into a
// recycled payload without holding a.mu, so with a full replay buffer
// frame k+1 is encoded while the collector is still closing frame k; it
// is still written only once k's ack has made room. It reports whether
// the frame entered the replay buffer: a relay face's boundary already
// settled upstream (acked, or held from before a resume) does not.
func (a *Agent) ship(boundary int64, typ byte, encodeBody func([]byte) []byte) (bool, error) {
	a.shipMu.Lock()
	defer a.shipMu.Unlock()
	a.mu.Lock()
	payload, ok, err := a.s.admit(boundary)
	a.mu.Unlock()
	if !ok {
		return false, err
	}
	payload = appendVarint(payload, boundary)
	payload = append(payload, codecVersion)
	payload = encodeBody(payload)

	a.mu.Lock()
	defer a.mu.Unlock()
	a.s.offer = replayEntry{typ: typ, boundary: boundary, payload: payload}
	err = a.driveLocked()
	return a.s.top == boundary, err
}

// unackedFrames returns how many shipped frames await an upstream ack.
func (a *Agent) unackedFrames() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.s.replay)
}

// replayState copies the unacked replay entries for a relay checkpoint.
func (a *Agent) replayState() []replayEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s.held()
}

// abort ends the agent without the Bye handshake: the stream is not
// cleanly finished — a relay session failed mid-flight — and the
// collector must keep treating this agent as resumable (statusDown, not
// statusBye). Unacked frames are deliberately left undelivered; a
// checkpointed restart re-offers them.
func (a *Agent) abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.s.err == nil {
		a.s.err = fmt.Errorf("wire: agent %d closed", a.s.id)
	}
	a.dropConnLocked()
	a.cond.Broadcast()
}

// dropConnLocked closes and forgets the current connection, retiring its
// read loop. a.mu must be held.
func (a *Agent) dropConnLocked() {
	a.s.lost()
	if a.conn != nil {
		a.conn.Close()
		a.conn, a.w = nil, nil
		a.gen++
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
	return a.s.acked
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
	var err error
	if a.s.state == streamOpen && a.s.err == nil {
		a.s.state = streamClosing
		err = a.driveLocked()
	}
	if a.conn != nil {
		if cerr := a.conn.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("wire: closing agent connection: %w", cerr)
		}
	}
	a.dropConnLocked()
	a.cond.Broadcast()
	return err
}
