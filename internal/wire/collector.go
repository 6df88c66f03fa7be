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

// CollectorConfig parameterizes a collector session beyond the pipeline
// configuration: fleet size, hold timeout, checkpointing, and the
// metrics listener.
type CollectorConfig struct {
	// Agents is the fleet size; agent IDs must be in [0, Agents).
	Agents int
	// HoldTimeout bounds how long an interval waits for a missing agent's
	// frame, whether the agent never connected, is disconnected, or is
	// connected and silent. The agent is then dead: intervals close
	// without it, flagged Partial, until it sends any frame or
	// reconnects. With no interval left to close no hold runs: the
	// session waits for every agent's Bye. 0 holds forever, so one silent
	// agent holds every interval, and every other agent's Close with it.
	// A negative timeout is refused.
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

// queueCap is the ingest credits a connection's reader holds. A credit
// in use is a live decoder, and agents acked on queue run ahead into
// every credit, so there is one: the close refunds it at absorb, and the
// reader still decodes frame k+1 while the merge loop mines k.
const queueCap = 1

// Collector is the receiving half of the protocol. It merges the
// agents' drained interval frames by absolute grid boundary, absorbing
// each boundary's frames into its pipeline in agent-ID order (the same
// additive merge in-process sharding uses) and closing detection
// there, so the merged report stream is byte-identical to a single
// process having run all agent partitions as local shards.
//
// A session survives its transports: connections drop and reconnect
// freely (agents replay unacked frames, which the collector
// deduplicates), a new connection for an agent ID supersedes the old
// one, and a missing agent degrades reports to Partial ones once
// HoldTimeout runs out. Only listener, pipeline, emit, checkpoint, and
// context errors are fatal.
type Collector struct {
	cc      CollectorConfig
	digest  uint64
	primary *core.Pipeline // owns all detection state
	met     *metrics.Session
	// fwd, when non-nil, puts the collector in forward mode: it is the
	// child-facing half of a Relay, and every closed boundary is drained
	// and shipped upstream through fwd, tagged with its leaf span,
	// instead of closing detection. See relay.go.
	fwd *Agent
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
func newCollector(cfg core.Config, cc CollectorConfig, fwd *Agent) (*Collector, error) {
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
		c.fwd.s.preload(cp.held) // before the first dial: nothing else holds the agent
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

// Event kinds of the merge loop: everything that happens to a session,
// serialized for the one goroutine that runs its core.
type eventKind int

const (
	evHello eventKind = iota
	evFrame
	evBye
	evConnErr
	evAcceptErr
	evHoldTimeout
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

	d := &driver{c: c, emitFn: emit, links: make([]link, c.cc.Agents),
		events: make(chan event, 16), done: make(chan struct{})}
	for i := range d.links {
		d.links[i].free = make(chan *intervalDecoder, queueCap+1)
	}
	s := newSession(d, c.met, c.cc.Agents, c.digest)
	s.checkpointed, s.hold = c.cc.CheckpointPath != "", c.cc.HoldTimeout > 0
	if c.fwd != nil {
		s.relay, s.spanLo, d.upAcks = true, c.fwd.s.spanLo, c.fwd.acks
	}
	d.s = s
	if c.restored != nil {
		s.restore(c.restored)
		c.restored = nil
	}

	// Track every accepted connection so session teardown can unblock
	// handler goroutines parked in reads.
	var cmu sync.Mutex
	conns := make(map[net.Conn]struct{})
	d.forget = func(conn net.Conn) {
		cmu.Lock()
		delete(conns, conn)
		cmu.Unlock()
	}
	defer func() {
		close(d.done)
		ln.Close()
		d.stopHold()
		cmu.Lock()
		//detlint:ok maprange -- teardown closes every tracked conn; Close order is unobservable
		for conn := range conns {
			conn.Close()
		}
		cmu.Unlock()
		d.writers.Wait()
	}()

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case d.events <- event{kind: evAcceptErr, err: err}:
				case <-d.done:
				}
				return
			}
			cmu.Lock()
			conns[conn] = struct{}{}
			cmu.Unlock()
			go handleConn(conn, d.events, d.done)
		}
	}()

	return d.run(ctx)
}

// handleConn owns one accepted connection's reading: the handshake
// against the merge loop, then the frame stream as merge events, one
// ingest credit per frame. Every frame to the agent after the handshake
// is its ack writer's, a refused frame's Error reply included.
func handleConn(conn net.Conn, events chan<- event, done <-chan struct{}) {
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
	send := func(ev event) bool {
		select {
		case events <- ev:
			return true
		case <-done:
			return false
		}
	}
	reply := make(chan helloReply, 1)
	var r helloReply
	if !send(event{kind: evHello, conn: conn, hello: h, reply: reply}) {
		conn.Close()
		return
	}
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
		send(event{kind: evConnErr, id: id, gen: gen, err: err})
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
			if err == nil && (frame.spanLo != h.spanLo || frame.spanLen != h.spanLen) {
				err = fmt.Errorf("wire: frame leaf span [%d,+%d) is not the hello's [%d,+%d)",
					frame.spanLo, frame.spanLen, h.spanLo, h.spanLen)
			}
			if err != nil {
				fail(refusal{err})
				return
			}
			last = frame.boundary
			if !send(event{kind: evFrame, id: id, gen: gen, boundary: frame.boundary, frame: frame}) {
				return
			}
		case frameBye:
			send(event{kind: evBye, id: id, gen: gen})
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

// ackWriter is the sole writer on an accepted connection: the HelloOK
// with the resume line, then an Ack per value on ch, or the ByeOK for the
// sentinel. It exits on a write error, when ch is closed (after the Error
// reply to a refusal queued on refused), or once the session is done and
// nothing more is queued, and closes conn on the way out.
func ackWriter(conn net.Conn, ch <-chan int64, refused <-chan error, resume int64, done <-chan struct{}) {
	defer conn.Close()
	w := bufio.NewWriter(conn)
	typ, payload := byte(frameHelloOK), appendBoundary(nil, resume)
	for {
		if writeFrame(w, typ, payload) != nil || w.Flush() != nil {
			return
		}
		var b int64
		ok := true
		select {
		case b, ok = <-ch:
		case <-done:
			// Nothing further is owed, but a confirmation the merge loop
			// queued just before the session ended must still go out.
			select {
			case b, ok = <-ch:
			default:
				return
			}
		}
		if !ok { // retired
			select {
			case err := <-refused:
				writeError(w, errCodeOther, err)
			default:
			}
			return
		}
		typ, payload = frameAck, appendBoundary(payload[:0], b)
		if b == byeOKSentinel {
			typ, payload = frameByeOK, nil
		}
	}
}

// offer sends v on ch unless ch is full or nil.
func offer[T any](ch chan T, v T) {
	select {
	case ch <- v:
	default:
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

// link is the driver's side of one agent: its current connection, that
// connection's ack-writer channel and ingest credits, and the agent's
// free list of decoders, which outlives connections.
type link struct {
	conn    net.Conn
	ackCh   chan int64 // latest-wins ack channel to conn's ack writer
	credits chan struct{}
	free    chan *intervalDecoder
}

// driver runs a session core over sockets and a timer: the merge loop
// feeds it one event at a time and carries out its effects. It owns
// everything of the session that is not the core's.
type driver struct {
	c       *Collector
	s       *session
	emitFn  func(*core.Report) error
	links   []link
	events  chan event
	done    chan struct{}
	pending event // the hello being answered
	// forget removes a connection its ack writer took over from Serve's
	// teardown set, so the session-end mass close cannot race its reply.
	forget func(net.Conn)
	// writers counts live ack writers. Serve waits for them on return so a
	// process exiting right after the session cannot sever a pending ByeOK.
	writers sync.WaitGroup
	hold    *time.Timer
	upAcks  chan int64 // a relay's upstream ack line (see Agent.acks); nil at a root
}

// run is the merge loop: a single goroutine applies one event at a time,
// a relay's upstream ack progress included, until the session finishes.
func (d *driver) run(ctx context.Context) error {
	for !d.s.finished() {
		var err error
		select {
		case <-ctx.Done():
			return ctx.Err()
		case line := <-d.upAcks:
			// A lost link reports here too: the face redials it at once.
			if err = d.c.fwd.drive(); err == nil {
				d.c.met.SetFramesHeld(int64(d.c.fwd.unackedFrames()))
				err = d.s.upstreamAck(line)
			}
		case ev := <-d.events:
			err = d.handle(ctx, ev)
		}
		if err != nil {
			return err
		}
	}
	if d.c.fwd != nil || d.s.emitted > 0 {
		// A relay ends silently: the empty-stream parity report is the
		// root's to emit, once, for the whole tree.
		return nil
	}
	// Parity with a single process over an empty stream: its engine
	// still flushes one (empty) final interval on Close.
	rep, err := d.c.primary.EndInterval()
	if err != nil {
		return err
	}
	return d.emitFn(rep)
}

// handle hands one event to the core. Only accept and core errors end
// the session.
func (d *driver) handle(ctx context.Context, ev event) error {
	switch ev.kind {
	case evHello:
		d.pending = ev
		return d.s.hello(ev.hello)
	case evFrame:
		return d.s.frame(ev.id, ev.gen, ev.frame)
	case evBye:
		return d.s.bye(ev.id, ev.gen)
	case evConnErr:
		return d.s.lost(ev.id, ev.gen, errors.As(ev.err, new(refusal)))
	case evHoldTimeout:
		return d.s.holdFired(ev.boundary)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("wire: accepting agent connection: %w", ev.err)
}

// The effects, as the session's sockets and timer carry them out.

func (d *driver) accept(id, gen int, resume int64) {
	ev, l := d.pending, &d.links[id]
	l.conn, l.ackCh = ev.conn, make(chan int64, 1)
	l.credits = make(chan struct{}, queueCap)
	for range queueCap {
		l.credits <- struct{}{}
	}
	refused := make(chan error, 1)
	d.writers.Add(1)
	go func(ch chan int64) {
		defer d.writers.Done()
		ackWriter(ev.conn, ch, refused, resume, d.done)
	}(l.ackCh)
	ev.reply <- helloReply{gen: gen, credits: l.credits, free: l.free, refused: refused}
}

func (d *driver) refuse(code uint64, err error)        { d.pending.reply <- helloReply{err: err, code: code} }
func (d *driver) refund(id int)                        { offer(d.links[id].credits, struct{}{}) }
func (d *driver) recycle(id int, dec *intervalDecoder) { offer(d.links[id].free, dec) }
func (d *driver) ack(id int, line int64)               { pushLatest(d.links[id].ackCh, line) }

func (d *driver) byeOK(id int) {
	pushLatest(d.links[id].ackCh, byeOKSentinel)
	d.drop(id, true)
}

// drop ends the connection's ack writer. With handOff the writer closes
// the connection once it has written what is still owed, the ByeOK or
// the Error reply to a refused frame: closing here would race that frame
// off the wire, and a lost ByeOK leaves the agent's Close redialing a
// finished session, a lost refusal has the agent replay the frame.
func (d *driver) drop(id int, handOff bool) {
	l := &d.links[id]
	close(l.ackCh)
	if handOff {
		d.forget(l.conn)
	} else {
		l.conn.Close()
	}
	l.conn, l.ackCh, l.credits = nil, nil, nil
}

func (d *driver) armHold(b int64) {
	d.stopHold()
	d.hold = time.AfterFunc(d.c.cc.HoldTimeout, func() {
		select {
		case d.events <- event{kind: evHoldTimeout, boundary: b}:
		case <-d.done:
		}
	})
}

func (d *driver) stopHold() {
	if d.hold != nil {
		d.hold.Stop()
		d.hold = nil
	}
}

func (d *driver) absorb(id int, fr queuedFrame) error {
	err := d.c.primary.AbsorbOpenInterval(fr.oi)
	d.recycle(id, fr.dec) // the absorb copied everything out of it
	return err
}

func (d *driver) emit(_ int64, partial []int) error {
	rep, err := d.c.primary.EndInterval()
	if err != nil {
		return err
	}
	rep.Partial = partial
	return d.emitFn(rep)
}

// ship sends the merged interval upstream as a frameRelayInterval tagged
// with the relay's leaf span and the leaves b closed without.
func (d *driver) ship(b int64, missing []int) error {
	c, up := d.c, d.c.fwd
	oi := c.primary.DrainOpenInterval()
	shipped, err := up.ship(b, frameRelayInterval, func(buf []byte) []byte {
		buf = appendRelayHeader(buf, up.s.spanLo, up.s.spanLen, missing)
		return up.enc.appendOpenInterval(buf, oi)
	})
	c.primary.RecycleOpenInterval(oi) // the ship encoded it
	if err != nil {
		return fmt.Errorf("wire: forwarding boundary %d: %w", b, err)
	}
	if shipped {
		c.met.IncFramesRelayed()
	}
	c.met.SetFramesHeld(int64(c.fwd.unackedFrames()))
	return nil
}

func (d *driver) checkpoint(cp checkpoint) error {
	if c := d.c; c.fwd != nil {
		cp.relay, cp.held = true, c.fwd.replayState()
	} else {
		cp.hist = c.primary.Snapshot()
	}
	return writeCheckpointFile(d.c.cc.CheckpointPath, cp)
}
