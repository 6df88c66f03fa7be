// Package wire is the cross-process protocol: a versioned binary codec
// for the pipeline's mergeable open interval and its detection history,
// and the agent/collector roles that ship the interval over TCP so
// shards can live on separate machines.
//
// Each kind of state has one canonical byte form: varint-packed counts,
// IEEE-754 bit-exact floats, tracked feature values in ascending order.
// Canonical means deterministic: equal values always encode to the same
// bytes, and every accepted parse re-encodes byte-identically (the
// FuzzWireRoundTrip and FuzzColumnarRecords invariants). The open
// interval — per detector the clone histograms (histogram.Snapshot),
// plus the buffered flows in columnar form — travels in open-interval
// frames (core.OpenInterval; the exported EncodeOpenIntervalSnapshot
// and DecodeOpenIntervalSnapshot take it in core.PipelineSnapshot
// shape). Detection history —
// per detector the KL reference counts, KL series, first-difference
// window and interval counter (detector.BankSnapshot) — is written only
// to the root collector's checkpoint file, after a close has emptied
// the open interval. Restoring that history into a pipeline built from
// the same configuration reproduces the original's reports byte for
// byte: checkpoints are lossless, not approximations.
//
// On top of the codec sit the distributed roles. An Agent runs a local
// (optionally sharded) pipeline as an accumulator: at each measurement
// interval close it drains the open interval and ships it as one
// open-interval frame tagged with the interval's absolute grid
// boundary. An agent never closes detection, so it has no history to
// ship. A Collector accepts N agent connections, groups frames by
// boundary, absorbs each group into its pipeline in agent-ID order via
// the same additive merge the in-process shard package uses, and closes
// detection there. Because
// equal-seed histogram clones are exact mergeable sketches, the
// collector's reports are byte-identical to a single process having run
// all N partitions as local shards — the property the loopback
// end-to-end tests pin down for N ∈ {2, 4}.
//
// Framing is length-prefixed (uint32 big-endian length, one type byte,
// payload) with a Hello handshake carrying the protocol version and a
// digest of the detection configuration, so mismatched histogram spaces
// fail fast instead of merging garbage; checkpoint files carry the same
// digest, so a session never resumes history under another
// configuration. The protocol is trusted-network plumbing: it
// authenticates nothing and assumes agents and collector were launched
// with the same configuration, as a deployment script would.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// codecVersion is the open-interval encoding version; bump it on any
// change to the frame byte layout. Decoders reject other versions.
// Version 2 replaced the row-wise record section with the columnar
// encoding of records.go. Checkpoint files have their own version
// (checkpointVersion).
const codecVersion = 2

// appendUvarint, appendVarint, and appendFloat64 are the codec's three
// primitive writers. Floats are stored as their IEEE-754 bit pattern in
// little-endian order — bit-exact round trips, no formatting ambiguity.
func appendUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// reader is a fail-soft cursor over an encoded snapshot: after the first
// malformed field every subsequent read returns zero values and err()
// reports the failure, so decoders can be written as straight-line code.
type reader struct {
	buf []byte
	off int
	e   error
}

func (r *reader) fail(format string, args ...any) {
	if r.e == nil {
		r.e = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) err() error { return r.e }

// rem returns the number of unread bytes.
func (r *reader) rem() int { return len(r.buf) - r.off }

func (r *reader) byte() byte {
	if r.e != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated input at byte %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.e != nil {
		return 0
	}
	// Most fields — dictionary indices, small counts and gaps — fit in
	// one byte, and a one-byte form is always minimal.
	if off := r.off; off < len(r.buf) && r.buf[off] < 0x80 {
		r.off = off + 1
		return uint64(r.buf[off])
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("malformed uvarint at byte %d", r.off)
		return 0
	}
	// Reject non-minimal encodings (e.g. 0x80 0x00 for 0): the codec is
	// canonical — every value has exactly one byte form — so decode must
	// only accept what encode produces, or decode∘encode would not be
	// the identity on accepted inputs. A multi-byte form is minimal
	// exactly when its last byte, the highest 7-bit group, is not zero.
	if r.buf[r.off+n-1] == 0 {
		r.fail("non-minimal uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	// Decode via uvarint so the minimality check applies: AppendVarint
	// is the zigzag transform over AppendUvarint.
	ux := r.uvarint()
	v := int64(ux >> 1)
	if ux&1 != 0 {
		v = ^v
	}
	return v
}

// bytes reads n raw bytes into dst's memory when it is large enough,
// else into a fresh slice.
func (r *reader) bytes(n int, dst []byte) []byte {
	if r.e != nil {
		return nil
	}
	if r.rem() < n {
		r.fail("truncated %d-byte column at byte %d", n, r.off)
		return nil
	}
	out := resize(dst, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// uint64 reads a fixed 8-byte little-endian word: a float's bit pattern
// or a config digest.
func (r *reader) uint64() uint64 {
	if r.e != nil {
		return 0
	}
	if r.rem() < 8 {
		r.fail("truncated 8-byte word at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) float64() float64 { return math.Float64frombits(r.uint64()) }

// length reads a uvarint element count and bounds it by the remaining
// input, assuming each element occupies at least minBytes bytes — a
// corrupt length field then fails cleanly instead of triggering a huge
// allocation.
func (r *reader) length(minBytes int) int {
	n := r.uvarint()
	if r.e != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	// n > rem/minBytes, without a division per call: n <= rem rules out
	// overflow in the product.
	if rem := uint64(r.rem()); n > rem || n*uint64(minBytes) > rem {
		r.fail("length %d exceeds remaining input (%d bytes)", n, r.rem())
		return 0
	}
	return int(n)
}

// expectEOF fails unless the reader consumed its whole buffer — the
// codec never leaves trailing bytes, so any remainder is corruption.
func (r *reader) expectEOF() {
	if r.e == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes after snapshot", len(r.buf)-r.off)
	}
}
