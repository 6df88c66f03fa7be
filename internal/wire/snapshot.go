package wire

import (
	"bytes"
	"fmt"
	"sync"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/histogram"
)

// appendHistogram encodes one histogram snapshot: bin count, per-bin
// counts, total, and — when value tracking is on — each bin's tracked
// values. The snapshot's canonical form (values strictly ascending per
// bin) is written verbatim, which is what makes the encoding
// deterministic; intervalDecoder.histogram refuses anything else.
func appendHistogram(b []byte, s histogram.Snapshot) []byte {
	b = appendUvarint(b, uint64(len(s.Counts)))
	for _, c := range s.Counts {
		b = appendUvarint(b, c)
	}
	b = appendUvarint(b, s.Total)
	if s.Values == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	for _, vs := range s.Values {
		b = appendUvarint(b, uint64(len(vs)))
		for _, vc := range vs {
			b = appendUvarint(b, vc.Value)
			b = appendUvarint(b, vc.Count)
		}
	}
	return b
}

// intervalDecoder is the memory decoded open intervals live in: arenas
// for every histogram's snapshot header, bin counts, bin headers and
// value entries, the open interval the decode fills, and the record
// section's scratch. Each histogram's slices are carved from the arenas
// as it is parsed, capacity-clipped so an append through one cannot
// reach the next; reflect.DeepEqual cannot tell them from individually
// allocated ones, so round-trip equality holds. The collector keeps a
// free list of decoders per agent and decodes every frame into a
// recycled one, so a warmed decode allocates nothing; a fresh decoder
// holds exactly one decode's memory, which then belongs to the caller.
type intervalDecoder struct {
	oi     core.OpenInterval
	snaps  []histogram.Snapshot
	counts []uint64
	heads  [][]histogram.ValueCount
	ents   []histogram.ValueCount
	rec    recordScratch
}

// reset empties the arenas for the next decode, keeping their memory.
// Empty arenas are non-nil so that carving zero elements yields the same
// non-nil empty slice a make would.
func (d *intervalDecoder) reset() {
	d.snaps, d.counts, d.heads, d.ents = emptied(d.snaps), emptied(d.counts), emptied(d.heads), emptied(d.ents)
}

// emptied returns s truncated to length zero, or a non-nil empty slice
// for nil.
func emptied[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s[:0]
}

// carve takes the next n elements of *arena and returns them,
// capacity-clipped, with unspecified contents the caller overwrites.
// When the arena cannot fit them it moves on to a fresh chunk of at
// least max(n, atLeast) and twice its old capacity, leaving the slices
// carved so far where they are: nothing is copied, and a decoder's
// arenas settle after a few decodes at one chunk that holds everything.
func carve[T any](arena *[]T, n, atLeast int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(n, atLeast, 2*cap(a)))
	}
	a = a[:len(a)+n]
	*arena = a
	return a[len(a)-n : len(a) : len(a)]
}

// histogram parses one histogram snapshot into the decoder's arenas.
func (d *intervalDecoder) histogram(r *reader) histogram.Snapshot {
	var s histogram.Snapshot
	k := r.length(1)
	s.Counts = carve(&d.counts, k, 0)
	for i := range s.Counts {
		s.Counts[i] = r.uvarint()
	}
	s.Total = r.uvarint()
	switch tracked := r.byte(); tracked {
	case 0:
		return s
	case 1:
	default:
		r.fail("invalid value-tracking flag %d", tracked)
		return s
	}
	s.Values = carve(&d.heads, k, 0)
	// Total is the sum of the entry counts, so it upper-bounds the
	// distinct-value count on anything the encoder produced, which makes
	// it the size of a fresh entry chunk; it is clamped by the remaining
	// input so a forged Total cannot force a huge allocation.
	hint := r.rem() / 2 // a value entry is at least two bytes
	if s.Total < uint64(hint) {
		hint = int(s.Total)
	}
	for b := 0; b < k; b++ {
		n := r.length(2)
		if n == 0 {
			s.Values[b] = nil
			continue
		}
		vs := carve(&d.ents, n, hint)
		for i := range vs {
			at := r.off
			vs[i] = histogram.ValueCount{Value: r.uvarint(), Count: r.uvarint()}
			// The encoder writes each bin's values strictly ascending; a
			// repeated or out-of-order value is bytes it never produces, so
			// decode refuses it like any other non-canonical form.
			if i > 0 && vs[i].Value <= vs[i-1].Value {
				r.fail("histogram bin %d value %d at byte %d not above %d; values must be strictly ascending",
					b, vs[i].Value, at, vs[i-1].Value)
			}
		}
		s.Values[b] = vs
	}
	return s
}

// The open-interval form: per detector the clone histograms alone, then
// the flow buffer — exactly core.OpenInterval, matching the drain
// (Pipeline.DrainOpenInterval) on the agent side and the additive
// absorb (Pipeline.AbsorbOpenInterval) on the collector side. Detection
// history never travels in it; the root collector's checkpoint carries
// history alone (checkpoint.go), so each kind of state has one byte
// format.

// openIntervalOnly guards the open-interval form: encoding a snapshot that
// carries history would silently discard it, so it is refused instead.
func openIntervalOnly(s core.PipelineSnapshot) error {
	for i, ds := range s.Bank.Detectors {
		if ds.HavePrev || ds.HaveKL || len(ds.Diffs) != 0 || ds.Interval != 0 {
			return fmt.Errorf("wire: detector %d carries detection history, which an open interval cannot", i)
		}
		if len(ds.Prev) != len(ds.Clones) || len(ds.KLPrev) != len(ds.Clones) {
			return fmt.Errorf("wire: detector %d history shape does not match its %d clones", i, len(ds.Clones))
		}
		for c, prev := range ds.Prev {
			if len(prev) != len(ds.Clones[c].Counts) {
				return fmt.Errorf("wire: detector %d clone %d reference length %d does not match %d bins",
					i, c, len(prev), len(ds.Clones[c].Counts))
			}
			for _, n := range prev {
				if n != 0 {
					return fmt.Errorf("wire: detector %d carries a reference interval, which an open interval cannot", i)
				}
			}
		}
		for _, kl := range ds.KLPrev {
			if kl != 0 {
				return fmt.Errorf("wire: detector %d carries a KL history, which an open interval cannot", i)
			}
		}
	}
	return nil
}

// appendOpenInterval appends the open-interval body: per detector the
// clone histograms, then the buffered flows.
func (e *encoder) appendOpenInterval(b []byte, oi core.OpenInterval) []byte {
	b = appendUvarint(b, uint64(len(oi.Clones)))
	for _, clones := range oi.Clones {
		b = appendUvarint(b, uint64(len(clones)))
		for _, hs := range clones {
			b = appendHistogram(b, hs)
		}
	}
	return e.appendRecordSection(b, &oi.Buffer)
}

// decodeOpenInterval parses an open-interval body into d.oi, the form
// the collector absorbs additively, reusing the memory of d's previous
// decode.
func (d *intervalDecoder) decodeOpenInterval(r *reader) {
	d.reset()
	d.oi.Clones = resize(emptied(d.oi.Clones), r.length(8))
	for i := range d.oi.Clones {
		clones := carve(&d.snaps, r.length(3), 0)
		for c := range clones {
			clones[c] = d.histogram(r)
		}
		d.oi.Clones[i] = clones
	}
	decodeRecordsInto(r, &d.oi.Buffer, &d.rec)
}

// openIntervalOf projects a history-free pipeline snapshot onto
// core.OpenInterval. Callers must have checked openIntervalOnly.
func openIntervalOf(s core.PipelineSnapshot) core.OpenInterval {
	oi := core.OpenInterval{
		Clones: make([][]histogram.Snapshot, len(s.Bank.Detectors)),
		Buffer: s.Buffer,
	}
	for i, ds := range s.Bank.Detectors {
		oi.Clones[i] = ds.Clones
	}
	return oi
}

// expandOpenInterval puts an open interval into the PipelineSnapshot
// shape the exported codec takes, with canonical empty history sized
// from the decoded clones (the bin count travels inside each
// histogram). The history is carved from three allocations —
// reference-count headers, their zeros, KL values — however many
// detectors and clones there are.
func expandOpenInterval(oi core.OpenInterval) core.PipelineSnapshot {
	clones, bins := 0, 0
	for _, cs := range oi.Clones {
		clones += len(cs)
		for _, hs := range cs {
			bins += len(hs.Counts)
		}
	}
	prev, zeros, kl := make([][]uint64, clones), make([]uint64, bins), make([]float64, clones)
	var s core.PipelineSnapshot
	s.Bank.Detectors = make([]detector.Snapshot, len(oi.Clones))
	for i, cs := range oi.Clones {
		n := len(cs)
		ds := detector.Snapshot{Clones: cs, Prev: prev[:n:n], KLPrev: kl[:n:n]}
		prev, kl = prev[n:], kl[n:]
		for c := range cs {
			k := len(cs[c].Counts)
			ds.Prev[c], zeros = zeros[:k:k], zeros[k:]
		}
		s.Bank.Detectors[i] = ds
	}
	s.Buffer = oi.Buffer
	return s
}

// EncodeOpenIntervalSnapshot serializes a drained open interval, given
// in the PipelineSnapshot shape, prefixed with the codec version: the
// bytes of an open-interval frame's body. It errors if the snapshot
// carries detection history (reference counts, KL series, closed
// intervals), which the open-interval form cannot hold.
func EncodeOpenIntervalSnapshot(s core.PipelineSnapshot) ([]byte, error) {
	if err := openIntervalOnly(s); err != nil {
		return nil, err
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.out = e.appendOpenInterval(append(e.out[:0], codecVersion), openIntervalOf(s))
	return bytes.Clone(e.out), nil
}

// encoders recycles encoder scratch, output buffer included, across
// EncodeOpenIntervalSnapshot calls: the frame is built in the pooled
// buffer and copied out once at its exact size, instead of growing a
// fresh slice append by append.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// DecodeOpenIntervalSnapshot parses an EncodeOpenIntervalSnapshot
// payload into the PipelineSnapshot shape, with canonical empty history.
// It rejects unknown codec versions, truncated input, and trailing
// bytes.
func DecodeOpenIntervalSnapshot(b []byte) (core.PipelineSnapshot, error) {
	r := &reader{buf: b}
	if v := r.byte(); r.err() == nil && v != codecVersion {
		return core.PipelineSnapshot{}, fmt.Errorf("wire: unsupported codec version %d (want %d)", v, codecVersion)
	}
	d := new(intervalDecoder)
	d.decodeOpenInterval(r)
	r.expectEOF()
	return expandOpenInterval(d.oi), r.err()
}
