package wire

import (
	"errors"
	"fmt"
)

// The agent's core: one logical stream to a collector. It owns the
// replay buffer, the ack line and the free payload list; whether the
// stream is open, closing, ended or failed; ship's entry checks; the
// HelloOK resume; Ack and ByeOK; how an Error is classified; and the
// lazy redial. It touches no socket, clock, goroutine, file or mutex.
// Its driver (agent.go: Agent) dials, writes and waits as step says and
// feeds back what it reads; the simulator (sim_test.go) runs the same
// core on a virtual clock.
//
// The lazy redial: only a ship with a frame not yet written, or a Bye
// not yet confirmed, asks for a connection; a link lost between
// intervals is redialed at the next ship or at Close, and the resume
// resends whatever is unacked. A relay's face redials as soon as it
// holds an unacked frame: without a checkpoint its children's acks wait
// on it, and a child with a full replay buffer ships nothing until then.

// replayEntry is one shipped interval frame retained until acked: the
// frame type, its grid boundary, and the encoded payload ready to be
// rewritten verbatim on a replacement connection.
type replayEntry struct {
	typ      byte
	boundary int64
	payload  []byte
}

// maxFreePayloads bounds the stream's free list of frame payloads. Two
// cover the steady state of a one-frame replay buffer: one in flight
// awaiting its ack while the next is encoded into the other.
const maxFreePayloads = 2

// step is what the stream needs next of its driver.
type step uint8

const (
	stepIdle step = iota // nothing: no ship or Bye under way, or the stream is over
	stepDial             // a ship or the Bye needs a connection and none is up
	stepSend             // write unsent()'s frames, then call wrote
	stepWait             // wait for an ack to make replay room, or for the ByeOK
)

type streamState uint8

const (
	streamOpen    streamState = iota
	streamClosing             // Close began: the Bye is owed until confirmed
	streamEnded               // the collector confirmed the Bye
)

// stream is the agent's core.
type stream struct {
	id     int
	digest uint64
	// spanLo and spanLen are the global leaf span a relay's face declares;
	// spanLen is 0 for a plain agent. A face's ship skips a boundary its
	// parent already holds.
	spanLo, spanLen int
	limit           int // the replay buffer's bound

	replay []replayEntry // unacked frames, boundary ascending
	acked  int64         // highest collector-acked boundary
	top    int64         // highest boundary entered into the replay buffer
	// free holds the payloads of acked frames for the next ships to
	// encode into, at most maxFreePayloads of them.
	free    [][]byte
	offer   replayEntry // a ship's frame waiting for replay room; nil payload when none
	up      bool        // a connection took its HelloOK and has not been lost
	sent    int         // replay entries handed to a connection since the last resume
	byeSent bool        // the Bye went out on the current connection
	state   streamState
	err     error // the stream is dead after it
}

func newStream(id int, digest uint64, limit int) stream {
	return stream{id: id, digest: digest, limit: limit}
}

// finished reports whether the stream takes no more traffic: it failed
// (an aborted one too), or its Bye was confirmed.
func (s *stream) finished() bool { return s.err != nil || s.state == streamEnded }

// admit applies ship's entry checks to boundary, the stream open and
// boundary beyond the ack line and every frame shipped before, and hands
// back a recycled payload to encode into. A relay face's stale boundary
// reports (nil, false, nil): a resumed relay re-closes boundaries its
// parent already holds, and settles its children without resending.
func (s *stream) admit(boundary int64) ([]byte, bool, error) {
	if s.state != streamOpen {
		return nil, false, fmt.Errorf("wire: agent %d closed", s.id)
	}
	if s.err != nil {
		return nil, false, s.err
	}
	if boundary <= s.acked || boundary <= s.top {
		switch {
		case s.spanLen > 0:
			return nil, false, nil
		case boundary <= 0:
			return nil, false, fmt.Errorf("wire: agent %d boundary %d: the protocol carries positive grid boundaries only", s.id, boundary)
		case boundary <= s.acked:
			return nil, false, fmt.Errorf("wire: agent %d boundary %d not after acked %d", s.id, boundary, s.acked)
		}
		return nil, false, fmt.Errorf("wire: agent %d boundary %d not after %d", s.id, boundary, s.top)
	}
	var payload []byte
	if n := len(s.free); n > 0 {
		payload, s.free[n-1] = s.free[n-1], nil
		s.free = s.free[:n-1]
	}
	return payload, true, nil
}

// step moves the offered frame into the replay buffer once there is
// room, dropping it if the ack line passed it meanwhile (a resume
// handshake can move the line), and says what the driver must do next.
func (s *stream) step() step {
	if o := s.offer; o.payload != nil && len(s.replay) < s.limit {
		s.offer = replayEntry{}
		if o.boundary > s.acked {
			s.replay, s.top = append(s.replay, o), o.boundary
		} else {
			s.recycle(o.payload)
		}
	}
	unsent := s.sent < len(s.replay) || s.byeDue()
	busy := unsent || s.offer.payload != nil || s.state == streamClosing
	switch {
	case s.finished():
	case !s.up && (busy || s.spanLen > 0 && len(s.replay) > 0):
		return stepDial
	case !s.up:
	case unsent:
		return stepSend
	case busy:
		return stepWait
	}
	return stepIdle
}

// unsent returns the frames to write on the connection, in order, and
// whether the Bye follows them; the frames alias the replay buffer.
func (s *stream) unsent() ([]replayEntry, bool) {
	return s.replay[s.sent:], s.byeDue()
}

// byeDue: the Bye is owed on this connection, and no ship waits ahead.
func (s *stream) byeDue() bool {
	return s.state == streamClosing && !s.byeSent && s.offer.payload == nil
}

// wrote records that unsent()'s frames reached the connection.
func (s *stream) wrote() {
	s.sent, s.byeSent = len(s.replay), s.byeSent || s.byeDue()
}

// hello opens a new connection, with the ack line as the resume offset.
func (s *stream) hello() hello {
	return hello{agentID: s.id, resume: s.acked, spanLo: s.spanLo, spanLen: s.spanLen, digest: s.digest}
}

// resume takes the collector's reply to a hello. A HelloOK carries the
// collector's commit line: the replay buffer is trimmed to it, and the
// rest is unsent on the new connection. An Error is classified: a config
// mismatch, or a collector that already ended this stream, is permanent;
// but the latter while closing means the Bye landed and only its
// confirmation was lost. Any other failure leaves the stream to redial.
func (s *stream) resume(typ byte, payload []byte) error {
	switch typ {
	case frameHelloOK:
	case frameError:
		err := decodeError(payload)
		var mismatch *ConfigMismatchError
		switch {
		case errors.Is(err, errSessionEnded) && s.state == streamClosing:
			s.state = streamEnded
			return nil
		case errors.As(err, &mismatch) || errors.Is(err, errSessionEnded):
			s.err = err
		}
		return err
	default:
		return fmt.Errorf("wire: expected hello reply, got frame type %d", typ)
	}
	line, err := decodeBoundary(payload)
	if err != nil {
		return err
	}
	s.ack(line)
	s.up, s.sent, s.byeSent = true, 0, false
	return nil
}

// received takes one collector frame after the handshake, and reports
// whether the connection stays: an Ack advances the ack line, a ByeOK
// confirms the Bye, an Error ends the stream, and unknown frames are
// skipped. An Ack that does not decode drops the connection, as a read
// error does: the next ship or Bye redials and the HelloOK has the line.
func (s *stream) received(typ byte, payload []byte) bool {
	switch typ {
	case frameAck:
		line, err := decodeBoundary(payload)
		if err != nil {
			return false
		}
		s.ack(line)
	case frameByeOK:
		if s.state == streamClosing {
			s.state = streamEnded
		}
	case frameError:
		s.err = decodeError(payload)
		return false
	}
	return true
}

// lost records that the connection broke.
func (s *stream) lost() { s.up, s.byeSent = false, false }

// ack advances the cumulative ack line to line and drops the settled
// prefix of the replay buffer.
func (s *stream) ack(line int64) {
	if line <= s.acked {
		return
	}
	s.acked = line
	n := 0
	for n < len(s.replay) && s.replay[n].boundary <= line {
		s.recycle(s.replay[n].payload)
		n++
	}
	m := copy(s.replay, s.replay[n:])
	clear(s.replay[m:])
	s.replay, s.sent = s.replay[:m], max(0, s.sent-n)
}

func (s *stream) recycle(payload []byte) {
	if len(s.free) < maxFreePayloads {
		s.free = append(s.free, payload[:0])
	}
}

// held copies the unacked replay entries, payloads too (an acked one is
// recycled): what a relay checkpoint persists for a restart to re-offer.
func (s *stream) held() []replayEntry {
	out := append([]replayEntry(nil), s.replay...)
	for i := range out {
		out[i].payload = append([]byte(nil), out[i].payload...)
	}
	return out
}

// preload seeds a new stream's replay buffer from a relay checkpoint;
// the first HelloOK trims what the collector holds, the rest is resent.
func (s *stream) preload(entries []replayEntry) {
	if s.replay = entries; len(entries) > 0 {
		s.top = entries[len(entries)-1].boundary
	}
}
