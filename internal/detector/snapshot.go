package detector

import (
	"fmt"
	"slices"

	"anomalyx/internal/histogram"
)

// Snapshot is the exported, plain-data detection history of a Detector:
// what carries across an interval boundary under §II-C — each clone's
// previous-interval bin counts (the KL reference) and KL distance, the
// pooled first-difference window behind the MAD threshold, and the
// interval counter. The open interval is not part of it; its histograms
// are rebuilt from flows every interval. A detector built from the same
// Config and restored from a snapshot reports byte-identically to the
// original from the next interval on. Like histogram.Snapshot it carries
// state, not configuration: the wire protocol checks a config digest in
// its handshake and in its checkpoint files.
//
// Clones is not history: it is only the argument shape of the wire
// package's exported open-interval codec. Detector.Snapshot leaves it
// nil and RestoreSnapshot refuses it.
type Snapshot struct {
	Clones []histogram.Snapshot // an open interval's clones; see above
	// Prev holds the previous interval's per-clone bin counts — the KL
	// reference distributions.
	Prev [][]uint64
	// KLPrev is the previous interval's KL distance per clone (for the
	// first difference).
	KLPrev []float64
	// HavePrev records whether Prev holds a complete interval; HaveKL
	// whether KLPrev holds a valid distance (needs two intervals).
	HavePrev bool
	HaveKL   bool
	// Diffs is the pooled first-difference history feeding the MAD
	// threshold, oldest first.
	Diffs []float64
	// Interval is the number of intervals closed so far.
	Interval int
}

// Snapshot captures the detector's detection history. The result shares
// no memory with the detector.
func (d *Detector) Snapshot() Snapshot {
	s := Snapshot{
		Prev:     make([][]uint64, len(d.prev)),
		KLPrev:   append([]float64(nil), d.klPrev...),
		HavePrev: d.havePrev,
		HaveKL:   d.haveKL,
		Diffs:    append([]float64(nil), d.diffs...),
		Interval: d.interval,
	}
	for c, prev := range d.prev {
		s.Prev[c] = append([]uint64(nil), prev...)
	}
	return s
}

// RestoreSnapshot replaces the detector's detection history with s,
// leaving the open interval as it is. The detector must have been
// constructed with the snapshot's clone and bin counts; see Snapshot for
// the configuration-matching caveat. A rejected snapshot changes
// nothing.
func (d *Detector) RestoreSnapshot(s Snapshot) error {
	if err := d.checkSnapshot(s); err != nil {
		return err
	}
	d.restore(s)
	return nil
}

// restore is RestoreSnapshot for a snapshot checkSnapshot accepted.
func (d *Detector) restore(s Snapshot) {
	for c, prev := range s.Prev {
		copy(d.prev[c], prev)
	}
	copy(d.klPrev, s.KLPrev)
	d.havePrev = s.HavePrev
	d.haveKL = s.HaveKL
	d.diffs = append(d.diffs[:0], s.Diffs...)
	d.sorted = append(d.sorted[:0], s.Diffs...)
	slices.Sort(d.sorted)
	d.interval = s.Interval
}

// checkSnapshot validates s's shape against d without moving anything.
func (d *Detector) checkSnapshot(s Snapshot) error {
	if s.Clones != nil {
		return fmt.Errorf("detector: restore snapshot carries %d clone histograms; a snapshot is history only", len(s.Clones))
	}
	if len(s.Prev) != len(d.prev) || len(s.KLPrev) != len(d.klPrev) {
		return fmt.Errorf("detector: restore snapshot with %d/%d clone histories into detector with %d clones",
			len(s.Prev), len(s.KLPrev), len(d.prev))
	}
	for _, prev := range s.Prev {
		if len(prev) != d.cfg.Bins {
			return fmt.Errorf("detector: restore snapshot with %d reference bins into detector with %d", len(prev), d.cfg.Bins)
		}
	}
	return nil
}

// BankSnapshot is the exported detection history of a Bank: one
// detector snapshot per monitored feature, in the bank's feature order.
type BankSnapshot struct {
	Detectors []Snapshot
}

// Snapshot captures every detector's detection history, in feature
// order. It takes the bank mutex.
func (b *Bank) Snapshot() BankSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BankSnapshot{Detectors: make([]Snapshot, len(b.detectors))}
	for i, d := range b.detectors {
		s.Detectors[i] = d.Snapshot()
	}
	return s
}

// RestoreSnapshot replaces every detector's detection history with the
// snapshot's, in feature order, leaving the open interval as it is. The
// bank must monitor the same number of features with the same detector
// parameters as the snapshot's source. The whole snapshot is validated
// first, so a rejected one changes nothing.
func (b *Bank) RestoreSnapshot(s BankSnapshot) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(s.Detectors) != len(b.detectors) {
		return fmt.Errorf("detector: restore bank snapshot with %d detectors into bank with %d",
			len(s.Detectors), len(b.detectors))
	}
	for i, d := range b.detectors {
		if err := d.checkSnapshot(s.Detectors[i]); err != nil {
			return err
		}
	}
	for i, d := range b.detectors {
		d.restore(s.Detectors[i])
	}
	return nil
}

// DrainIntervalInto snapshots every detector's open interval in feature
// order and resets it, leaving detection history untouched and
// uncopied: detector i's snapshots live in mem[i] (len(mem) must be the
// detector count; see histogram.CloneSet.SnapshotsInto) and the
// per-detector slices are appended to dst[:0]. The result stays valid
// until mem is drained into again, so a caller that drains every
// interval and is done with each result before the next one allocates
// nothing in steady state.
func (b *Bank) DrainIntervalInto(dst [][]histogram.Snapshot, mem []histogram.SnapshotMemory) [][]histogram.Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	dst = dst[:0]
	for i, d := range b.detectors {
		dst = append(dst, d.cur.SnapshotsInto(&mem[i]))
		d.cur.Reset()
	}
	return dst
}

// AbsorbInterval folds drained clone snapshots — one slice per detector
// in feature order, as DrainIntervalInto returns them — into the open
// interval additively: per detector, clone 0's values enter the one
// value table and every clone's bins follow (the mergeable-sketch
// invariant; both sides built from the same Config and Seed). Every
// detector's snapshots are validated before any value moves, so a
// malformed interval leaves the bank exactly as it was.
func (b *Bank) AbsorbInterval(clones [][]histogram.Snapshot) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(clones) != len(b.detectors) {
		return fmt.Errorf("detector: absorb %d detector intervals into bank with %d detectors",
			len(clones), len(b.detectors))
	}
	for i, d := range b.detectors {
		if err := d.cur.CheckSnapshots(clones[i]); err != nil {
			return fmt.Errorf("detector %d: %w", i, err)
		}
	}
	for i, d := range b.detectors {
		d.cur.MergeChecked(clones[i])
	}
	return nil
}
