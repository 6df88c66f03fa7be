package wire

import (
	"fmt"
	"slices"

	"anomalyx/internal/core"
	"anomalyx/internal/wire/metrics"
)

// The collector session's core: the agent table, the one close rule, the
// ack lines, the hold and Partial attribution. It touches no socket,
// clock, goroutine or file. The driver (collector.go: Serve, handleConn,
// ackWriter and the hold timer) turns what happens on the wire into
// calls of its event methods — hello, frame, bye, lost, holdFired and
// upstreamAck — and carries out what the core asks through effects. The
// simulator (sim_test.go) drives this same core on a virtual clock over
// seeded fault schedules.
//
// The one close rule: an agent with nothing queued — never connected,
// connected and silent, or down — blocks the earliest queued boundary
// until HoldTimeout runs out, then is dead until it sends any frame or
// reconnects; HoldTimeout 0 holds forever. With nothing queued no hold
// runs, and a session waits for a down agent's Bye: an agent redials only
// to ship or to close, so one between intervals looks like one dead.

// effects is everything the core asks of its driver. Connections are
// named by agent ID: the agent's current one.
type effects interface {
	accept(id, gen int, resume int64)   // answer the pending hello: HelloOK, as generation gen
	refuse(code uint64, err error)      // answer the pending hello: Error
	refund(id int)                      // return an ingest credit
	recycle(id int, d *intervalDecoder) // take back a dropped frame's decoder
	ack(id int, line int64)
	byeOK(id int)              // confirm the Bye, then end the connection
	drop(id int, handOff bool) // end the connection; handOff: after its Error reply
	armHold(b int64)           // call holdFired(b) after the hold, replacing an armed one
	stopHold()
	absorb(id int, fr queuedFrame) error // merge a frame and take back its decoder
	emit(b int64, partial []int) error   // the root: close detection, emit the report
	ship(b int64, missing []int) error   // a relay: drain and ship upstream
	checkpoint(cp checkpoint) error      // write the session table with the role's tail
}

// agentStatus is the core's per-agent connection state.
type agentStatus uint8

const (
	statusPending agentStatus = iota // never connected this session
	statusLive                       // connected
	statusDown                       // disconnected, expected back
	// statusDead: a hold ran out on it, connected or not. Any frame on the
	// connection it kept, queued or dropped as late, or a reconnect makes
	// it live again; losing that connection, down.
	statusDead
	statusBye // ended its stream; a later hello is refused
)

var statusNames = [...]string{statusPending: metrics.StatusPending, statusLive: metrics.StatusLive,
	statusDown: metrics.StatusDown, statusDead: metrics.StatusDead, statusBye: metrics.StatusBye}

// queuedFrame is one received-but-unabsorbed interval frame.
type queuedFrame struct {
	boundary int64
	oi       core.OpenInterval
	// dec is the decoder whose memory oi lives in, recycled once oi is
	// absorbed or dropped.
	dec *intervalDecoder
	// A relay frame carries its sender's global leaf span and the leaves
	// its boundary closed without; spanLen is 0 in a plain agent's.
	missing         []int
	spanLo, spanLen int
}

// agentState is the core's per-agent record.
type agentState struct {
	status    agentStatus
	gen       int  // connection generation; stale events carry an older one
	connected bool // a connection is attached (live, or dead and silent)
	// byeOwed: the agent said Bye, and its confirmation waits until its
	// queued frames reach their commit point (see bye).
	byeOwed  bool
	queue    []queuedFrame // pending frames, boundary ascending
	absorbed int64         // highest boundary absorbed
	top      int64         // highest boundary it sent, dropped ones too
	sent     int64         // ack line the connection already has
	// emittedAtAbsorb is the session's emitted count when the agent last
	// took part in a close; emitted - emittedAtAbsorb is its lag.
	emittedAtAbsorb int64
	// heard is set by the agent's hello this session, which declares its
	// leaf span: [spanLo, spanLo+spanLen) for a relay, empty otherwise.
	heard           bool
	spanLo, spanLen int
}

// tail is the agent's highest queued boundary, or its absorbed line: the
// line replayed frames must pass.
func (a *agentState) tail() int64 {
	if n := len(a.queue); n > 0 {
		return a.queue[n-1].boundary
	}
	return a.absorbed
}

// blocks is the hold rule: with nothing queued, only a dead or ended
// agent lets a boundary close.
func (a *agentState) blocks() bool {
	return len(a.queue) == 0 && a.status != statusDead && a.status != statusBye
}

// session is the core of one collector session.
type session struct {
	fx     effects
	met    *metrics.Session // nil-safe
	digest uint64
	// relay puts the session in forward mode; spanLo is then the relay's
	// first global leaf, which numbers its plain children.
	relay  bool
	spanLo int
	// checkpointed sessions commit a boundary when its checkpoint is
	// written; hold is whether a hold timeout is set.
	checkpointed, hold bool

	ag         []agentState
	lastClosed int64
	emitted    int64
	// acked is the settled line every agent may be acked up to (see
	// ackLine); upAcked is a relay's parent's ack line.
	acked, upAcked int64
	holdFor        int64 // boundary the armed hold covers, -1 when none
}

func newSession(fx effects, met *metrics.Session, agents int, digest uint64) *session {
	return &session{fx: fx, met: met, digest: digest, ag: make([]agentState, agents), holdFor: -1}
}

// restore seeds the agent table from a checkpoint. Every agent is
// disconnected at restart: ended and abandoned ones stay so, the rest
// are down and expected back.
func (s *session) restore(cp *checkpoint) {
	s.lastClosed, s.emitted = cp.lastClosed, cp.emitted
	s.acked = cp.lastClosed // a checkpointing session settles right after the write
	for id := range s.ag {
		a := &s.ag[id]
		a.absorbed, a.top, a.emittedAtAbsorb = cp.absorbed[id], cp.absorbed[id], cp.emitted
		a.status = cp.statuses[id]
		if a.status != statusBye && a.status != statusDead {
			a.status = statusDown
		}
		s.setStatus(id, a.status)
	}
	s.met.SetLastClosed(s.lastClosed)
}

// table returns the session table a checkpoint records.
func (s *session) table() checkpoint {
	cp := checkpoint{digest: s.digest, lastClosed: s.lastClosed, emitted: s.emitted,
		absorbed: make([]int64, len(s.ag)), statuses: make([]agentStatus, len(s.ag))}
	for id := range s.ag {
		a := &s.ag[id]
		cp.absorbed[id], cp.statuses[id] = a.absorbed, a.status
		if a.byeOwed && s.ackLine(a) < a.tail() {
			cp.statuses[id] = statusDown // unconfirmed: its Bye is resent after a restart
		}
	}
	return cp
}

func (s *session) setStatus(id int, st agentStatus) {
	s.ag[id].status = st
	s.met.Agent(id).SetStatus(statusNames[st])
}

// hello validates a handshake and attaches the connection as the agent's
// current one. Newest wins: a replacement supersedes and closes the
// previous connection, since the owner of an agent ID is whoever can
// still dial.
func (s *session) hello(h hello) error {
	switch id := h.agentID; {
	case id < 0 || id >= len(s.ag):
		s.fx.refuse(errCodeBadAgentID, fmt.Errorf("agent ID %d out of range [0,%d)", id, len(s.ag)))
	case h.digest != s.digest:
		s.fx.refuse(errCodeConfigMismatch, fmt.Errorf(configMismatchFormat, h.digest, s.digest))
	case s.ag[id].status == statusBye && !s.ag[id].byeOwed:
		s.fx.refuse(errCodeSessionEnded, fmt.Errorf("agent %d already ended its stream", id))
	default:
		a := &s.ag[id]
		if a.status != statusPending {
			s.met.Agent(id).IncReconnects()
		}
		if a.connected {
			s.fx.drop(id, false)
		}
		a.gen++
		a.connected, a.heard, a.byeOwed = true, true, false
		a.spanLo, a.spanLen = h.spanLo, h.spanLen
		// The agent trims its replay buffer up to the resume line, so it is
		// the commit line, not the queue tail: a frame queued above it is
		// resent and dropped as a duplicate.
		a.sent = s.ackLine(a)
		s.setStatus(id, statusLive)
		s.fx.accept(id, a.gen, a.sent)
		s.met.Agent(id).SetLastAcked(a.sent)
	}
	return s.advance()
}

// frame takes an interval frame from agent id's connection gen.
func (s *session) frame(id, gen int, fr queuedFrame) error {
	a := &s.ag[id]
	if gen != a.gen {
		s.fx.recycle(id, fr.dec) // a stale connection's; it replays on the new one
		return nil
	}
	if a.status == statusDead {
		// A hold gave up on the agent while it stayed connected. A backlog
		// it replays is all late, so any frame makes it live.
		s.setStatus(id, statusLive)
	}
	a.top = max(a.top, fr.boundary)
	if fr.boundary <= s.lastClosed || fr.boundary <= a.tail() {
		// Already held or already closed: drop and re-ack (up to the
		// settled line) so the agent trims its replay buffer.
		if fr.boundary > a.absorbed && fr.boundary <= s.lastClosed {
			s.met.Agent(id).IncLateDrops()
		} else {
			s.met.Agent(id).IncDupDrops()
		}
		s.fx.recycle(id, fr.dec)
		s.fx.refund(id)
	} else {
		a.queue = append(a.queue, fr)
		s.met.Agent(id).SetQueueDepth(int64(len(a.queue)))
	}
	s.ack(id)
	return s.advance()
}

// bye ends agent id's stream. An agent exits once its Bye is confirmed,
// so with a checkpoint the confirmation waits for a write recording the
// end, lest a restart wait for the exited agent: the one holding its
// queued frames, or, with none queued, one made now. Without one it goes
// at once: a root has committed its frames, and a relay that crashes
// restarts empty, naming the exited child Partial as it would a dead one.
func (s *session) bye(id, gen int) error {
	a := &s.ag[id]
	if gen != a.gen {
		return nil
	}
	a.gen++
	a.byeOwed = a.connected
	s.setStatus(id, statusBye)
	if s.checkpointed && len(a.queue) == 0 {
		if err := s.fx.checkpoint(s.table()); err != nil {
			return err
		}
	}
	s.ack(id)
	return s.advance()
}

// lost detaches agent id's connection gen after a transport error, or,
// when refused, after a frame the driver refused.
func (s *session) lost(id, gen int, refused bool) error {
	a := &s.ag[id]
	if gen != a.gen {
		return nil
	}
	s.fx.drop(id, refused)
	a.connected = false
	a.gen++
	s.setStatus(id, statusDown)
	return s.advance()
}

// holdFired ends the hold armed for boundary b: every agent still
// blocking it is dead.
func (s *session) holdFired(b int64) error {
	if s.holdFor != b {
		return nil // stale: the boundary closed, or the hold moved on
	}
	s.holdFor = -1
	for id := range s.ag {
		if s.ag[id].blocks() {
			s.setStatus(id, statusDead)
		}
	}
	return s.advance()
}

// upstreamAck takes a relay's parent's new ack line. Without a
// checkpoint, children settle only once the merged frames holding their
// boundaries are acked upstream.
func (s *session) upstreamAck(line int64) error {
	s.upAcked = max(s.upAcked, line)
	if l := min(line, s.lastClosed); !s.checkpointed && l > s.acked {
		s.acked = l
		s.ackChildren()
	}
	return nil
}

// advance closes every boundary that is ready, then arms or stops the
// hold for the next one.
func (s *session) advance() error {
	for {
		b, ok := s.minQueued()
		if !ok || !s.ready() {
			break
		}
		s.stopHold()
		if err := s.closeBoundary(b); err != nil {
			return err
		}
	}
	b, ok := s.minQueued()
	switch {
	case !s.hold:
	case !ok || s.ready():
		s.stopHold()
	case s.holdFor != b:
		s.holdFor = b
		s.fx.armHold(b)
	}
	return nil
}

func (s *session) stopHold() {
	if s.holdFor >= 0 {
		s.fx.stopHold()
		s.holdFor = -1
	}
}

// minQueued returns the earliest queued boundary.
func (s *session) minQueued() (b int64, ok bool) {
	for id := range s.ag {
		if q := s.ag[id].queue; len(q) > 0 && (!ok || q[0].boundary < b) {
			b, ok = q[0].boundary, true
		}
	}
	return b, ok
}

// ready: no agent blocks the earliest boundary.
func (s *session) ready() bool {
	for id := range s.ag {
		if s.ag[id].blocks() {
			return false
		}
	}
	return true
}

// finished: every agent ended, confirmed, or dead, and nothing queued.
func (s *session) finished() bool {
	for id := range s.ag {
		if a := &s.ag[id]; len(a.queue) > 0 || a.byeOwed || (a.status != statusBye && a.status != statusDead) {
			return false
		}
	}
	return true
}

// closeBoundary is the one interval close. It absorbs every agent's frame
// for b in agent-ID order, refunding each agent's credit, and names the
// leaves b closes without. Then the root emits the report and a relay
// ships the merged interval upstream. Last it settles the agents up to b:
// after the checkpoint write when there is one, or, at a relay without
// one, as far as its parent has acked. A root without a checkpoint acked
// its agents' frames when it queued them (see ackLine).
func (s *session) closeBoundary(b int64) error {
	var missing []int
	for id := range s.ag {
		a := &s.ag[id]
		if len(a.queue) == 0 || a.queue[0].boundary != b {
			continue
		}
		fr := a.queue[0]
		if err := s.fx.absorb(id, fr); err != nil {
			return fmt.Errorf("wire: absorbing agent %d: %w", id, err)
		}
		missing = append(missing, fr.missing...)
		a.queue[0] = queuedFrame{}
		a.queue = a.queue[1:]
		a.absorbed, a.emittedAtAbsorb = b, s.emitted+1
		s.fx.refund(id)
		s.met.Agent(id).SetQueueDepth(int64(len(a.queue)))
	}
	missing = s.missingFor(b, missing)
	if s.relay {
		if err := s.fx.ship(b, missing); err != nil {
			return err
		}
	} else if err := s.fx.emit(b, missing); err != nil {
		return err
	}
	s.lastClosed = b
	s.emitted++
	s.met.SetLastClosed(b)
	s.met.IncEmitted()
	for id := range s.ag {
		s.met.Agent(id).SetLag(s.emitted - s.ag[id].emittedAtAbsorb)
	}
	s.acked = b
	if s.checkpointed {
		if err := s.fx.checkpoint(s.table()); err != nil {
			return err
		}
	} else if s.relay {
		s.acked = min(s.upAcked, b)
	}
	s.ackChildren()
	return nil
}

// missingFor returns the global leaf IDs boundary b closes without: those
// the relay frames absorbed for b name, plus every leaf of each down or
// dead agent with nothing queued and nothing absorbed for b (a connection
// lost while its frame waited). A relay child's leaves are the span its
// hello declared; a plain child is leaf spanLo+id; one not heard from
// this session is placed by siblingSpan. The result is sorted and
// deduplicated; nil when complete.
func (s *session) missingFor(b int64, missing []int) []int {
	for id := range s.ag {
		a := &s.ag[id]
		if (a.status != statusDown && a.status != statusDead) || len(a.queue) > 0 || a.absorbed >= b {
			continue
		}
		lo, n := a.spanLo, a.spanLen
		if !a.heard {
			lo, n = s.siblingSpan(id)
		}
		if n == 0 {
			lo, n = s.spanLo+id, 1
		}
		for leaf := lo; leaf < lo+n; leaf++ {
			missing = append(missing, leaf)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	slices.Sort(missing)
	return slices.Compact(missing)
}

// siblingSpan places agent id, not heard from, among its relay
// siblings: the run of unheard children around it shares evenly the
// leaves from the end of the heard sibling below (the tier's first leaf
// with none) to the start of the one above, so one unheard child before
// or between heard ones gets exactly its span. Past the last heard
// sibling each takes that sibling's width, as in a balanced tree. An
// empty span when no relay sibling bounds the run.
func (s *session) siblingSpan(id int) (lo, n int) {
	p, q := id, id+1 // the unheard run is [p, q)
	for p > 0 && !s.ag[p-1].heard {
		p--
	}
	for q < len(s.ag) && !s.ag[q].heard {
		q++
	}
	lo = s.spanLo
	if p > 0 {
		lo, n = s.ag[p-1].spanLo+s.ag[p-1].spanLen, s.ag[p-1].spanLen
	}
	hi := lo + n*(q-p)
	if q < len(s.ag) && s.ag[q].spanLen > 0 {
		hi, n = s.ag[q].spanLo, (s.ag[q].spanLo-lo)/(q-p)
	}
	if lo += (id - p) * n; id == q-1 {
		n = hi - lo
	}
	return lo, max(n, 0)
}

// ackLine is the line agent a may be acked up to: its commit point, and
// never past the last boundary it sent, since an agent sends no boundary
// at or below its ack line and a dead one revives only by sending. A root
// without a checkpoint commits a frame when it queues it; elsewhere the
// settled line caps it: written to the checkpoint, or acked upstream.
func (s *session) ackLine(a *agentState) int64 {
	if !s.relay && !s.checkpointed {
		return a.top
	}
	return min(s.acked, a.top)
}

// ack sends agent id its ack line unless its connection already has it,
// then the Bye confirmation it is owed once the line covers its queue.
func (s *session) ack(id int) {
	a := &s.ag[id]
	line := s.ackLine(a)
	if a.connected && line > a.sent {
		a.sent = line
		s.fx.ack(id, line)
		s.met.Agent(id).SetLastAcked(line)
	}
	if a.byeOwed && (line >= a.tail() || !s.checkpointed) {
		a.byeOwed, a.connected = false, false
		s.fx.byeOK(id)
	}
}

func (s *session) ackChildren() {
	for id := range s.ag {
		s.ack(id)
	}
}
