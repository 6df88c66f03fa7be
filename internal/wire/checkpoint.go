package wire

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"anomalyx/internal/detector"
)

// checkpointMagic starts every root collector checkpoint file and
// relayCheckpointMagic every relay checkpoint file, so a session pointed
// at the wrong path — or at the other role's file — fails with a clear
// error instead of a codec one.
var (
	checkpointMagic      = [4]byte{'A', 'X', 'C', 'P'}
	relayCheckpointMagic = [4]byte{'A', 'X', 'R', 'P'}
)

// checkpointVersion is the checkpoint format's version, apart from the
// frames' codecVersion; readers refuse every other. Version 3 made the
// root's tail detection history only and added the config digest;
// versions 1 and 2 shared the frame codec's version byte.
const checkpointVersion = 3

// checkpoint is a session's durable state: the config digest, the
// session table every collector keeps (merge counters and the per-agent
// dedup lines and statuses), and the one thing each role cannot rebuild
// from its peers. At the root that is the pipeline's detection history,
// written right after a close empties the open interval: everything a
// restarted collector needs to emit, from the next interval on, the
// exact reports an unrestarted run would have. At a relay (whose
// pipeline is fully drained at every close) it is the shipped-but-
// unacked upstream frames, re-offered on restart. Frames absorbed after
// the checkpoint was written are covered by the ack protocol instead:
// acks are sent only after the checkpoint that contains their boundary,
// so whatever a restart loses is still in some agent's replay buffer.
type checkpoint struct {
	digest     uint64 // configDigest of the session's pipeline configuration
	lastClosed int64
	emitted    int64
	absorbed   []int64       // per-agent absorbed boundary, indexed by ID
	statuses   []agentStatus // per-agent status at checkpoint time
	relay      bool          // selects the magic and which tail follows

	hist detector.BankSnapshot // root tail: the pipeline's detection history
	held []replayEntry         // relay tail: unacked upstream frames, boundary ascending
}

// appendCheckpoint encodes a checkpoint: magic, checkpoint version,
// config digest (8 bytes, little-endian), the session table, then the
// detection history (root) or the held frames (relay).
func appendCheckpoint(b []byte, c checkpoint) []byte {
	magic := checkpointMagic
	if c.relay {
		magic = relayCheckpointMagic
	}
	b = append(b, magic[:]...)
	b = append(b, checkpointVersion)
	b = binary.LittleEndian.AppendUint64(b, c.digest)
	b = appendVarint(b, c.lastClosed)
	b = appendVarint(b, c.emitted)
	b = appendUvarint(b, uint64(len(c.absorbed)))
	for i := range c.absorbed {
		b = appendVarint(b, c.absorbed[i])
		b = append(b, byte(c.statuses[i]))
	}
	if !c.relay {
		return appendHistory(b, c.hist)
	}
	b = appendUvarint(b, uint64(len(c.held)))
	for _, e := range c.held {
		b = append(b, e.typ)
		b = appendVarint(b, e.boundary)
		b = appendUvarint(b, uint64(len(e.payload)))
		b = append(b, e.payload...)
	}
	return b
}

// decodeCheckpoint parses a checkpoint file's contents for the given
// role; the other role's magic is rejected like any foreign file.
func decodeCheckpoint(payload []byte, relay bool) (checkpoint, error) {
	want := checkpointMagic
	if relay {
		want = relayCheckpointMagic
	}
	r := &reader{buf: payload}
	var magic [4]byte
	for i := range magic {
		magic[i] = r.byte()
	}
	if r.err() == nil && magic != want {
		return checkpoint{}, fmt.Errorf("wire: bad checkpoint magic %q (want %q)", magic[:], want[:])
	}
	if v := r.byte(); r.err() == nil && v != checkpointVersion {
		r.fail("unsupported checkpoint version %d (want %d)", v, checkpointVersion)
	}
	c := checkpoint{relay: relay}
	c.digest = r.uint64()
	c.lastClosed = r.varint()
	c.emitted = r.varint()
	n := r.length(2)
	c.absorbed = make([]int64, n)
	c.statuses = make([]agentStatus, n)
	for i := 0; i < n; i++ {
		c.absorbed[i] = r.varint()
		s := agentStatus(r.byte())
		if r.err() == nil && s > statusBye {
			r.fail("invalid agent status %d", s)
		}
		c.statuses[i] = s
	}
	if relay {
		c.held = decodeHeldFrames(r)
	} else {
		c.hist = decodeHistory(r)
	}
	r.expectEOF()
	if r.err() != nil {
		return checkpoint{}, r.err()
	}
	return c, nil
}

// appendHistory encodes a bank's detection history: per detector in
// feature order, the reference counts, the KL series, the two validity
// flags, the pooled first differences and the interval counter.
func appendHistory(b []byte, s detector.BankSnapshot) []byte {
	b = appendUvarint(b, uint64(len(s.Detectors)))
	for _, ds := range s.Detectors {
		b = appendUvarint(b, uint64(len(ds.Prev)))
		for _, prev := range ds.Prev {
			b = appendUvarint(b, uint64(len(prev)))
			for _, c := range prev {
				b = appendUvarint(b, c)
			}
		}
		b = appendUvarint(b, uint64(len(ds.KLPrev)))
		for _, kl := range ds.KLPrev {
			b = appendFloat64(b, kl)
		}
		b = append(b, boolByte(ds.HavePrev), boolByte(ds.HaveKL))
		b = appendUvarint(b, uint64(len(ds.Diffs)))
		for _, d := range ds.Diffs {
			b = appendFloat64(b, d)
		}
		b = appendUvarint(b, uint64(ds.Interval))
	}
	return b
}

// decodeHistory parses an appendHistory body.
func decodeHistory(r *reader) detector.BankSnapshot {
	// A detector's history takes at least six bytes: four counts and
	// two flags.
	s := detector.BankSnapshot{Detectors: make([]detector.Snapshot, r.length(6))}
	for i := range s.Detectors {
		ds := &s.Detectors[i]
		ds.Prev = make([][]uint64, r.length(1))
		for c := range ds.Prev {
			prev := make([]uint64, r.length(1))
			for j := range prev {
				prev[j] = r.uvarint()
			}
			ds.Prev[c] = prev
		}
		ds.KLPrev = make([]float64, r.length(8))
		for c := range ds.KLPrev {
			ds.KLPrev[c] = r.float64()
		}
		ds.HavePrev = decodeBool(r)
		ds.HaveKL = decodeBool(r)
		// nil for empty, matching Detector.Snapshot's append-to-nil shape,
		// so decode(encode(s)) is deeply equal to s, not just equivalent.
		if n := r.length(8); n > 0 {
			ds.Diffs = make([]float64, n)
			for j := range ds.Diffs {
				ds.Diffs[j] = r.float64()
			}
		}
		ds.Interval = int(r.uvarint())
	}
	return s
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func decodeBool(r *reader) bool {
	switch b := r.byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %d", b)
		return false
	}
}

// decodeHeldFrames parses a relay checkpoint's tail. A relay ships
// nothing upstream but merged relay frames, so that is the only type it
// can hold.
func decodeHeldFrames(r *reader) []replayEntry {
	var held []replayEntry
	n := r.length(3)
	prev := int64(0)
	for i := 0; i < n; i++ {
		var e replayEntry
		e.typ = r.byte()
		if r.err() == nil && e.typ != frameRelayInterval {
			r.fail("held frame %d has type %d, not a relay interval", i, e.typ)
		}
		e.boundary = r.varint()
		if r.err() == nil && e.boundary <= prev {
			r.fail("held frame boundary %d not after %d", e.boundary, prev)
		}
		prev = e.boundary
		e.payload = r.bytes(r.length(1), nil)
		if e.payload == nil {
			e.payload = []byte{}
		}
		held = append(held, e)
	}
	return held
}

// writeCheckpointFile durably and atomically replaces path with the
// encoded checkpoint: write and fsync a sibling temp file, rename it
// over, then fsync the directory. A crash mid-write leaves the previous
// checkpoint intact, and once this returns the new one survives a power
// loss — the condition under which its boundary may be acked.
func writeCheckpointFile(path string, c checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, err = f.Write(appendCheckpoint(nil, c)); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("wire: writing checkpoint: %w", err)
	}
	if err = os.Rename(tmp, path); err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		return fmt.Errorf("wire: committing checkpoint: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadCheckpointFile reads and decodes the checkpoint at path.
func loadCheckpointFile(path string, relay bool) (checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return checkpoint{}, fmt.Errorf("wire: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(b, relay)
}
