package detector

import (
	"fmt"
	"slices"

	"anomalyx/internal/histogram"
)

// Snapshot is the exported, plain-data state of a Detector: the open
// interval's clone histograms plus the full detection history (reference
// counts, KL series, first-difference samples, interval counter).
// Restoring a snapshot into a detector constructed from the same Config
// reproduces the original exactly — its subsequent reports are
// byte-identical to the original's, the wire package's round-trip
// guarantee. The snapshot shares no memory with the detector, and every
// slice is in a canonical order (clones in construction order, tracked
// values sorted ascending), so equal detector states yield deeply equal
// snapshots.
//
// Like histogram.Snapshot, a Snapshot carries state, not configuration:
// the receiving detector must be built from the same Config (features,
// bins, clones, seed, thresholds) for the restore to be meaningful. The
// wire protocol enforces this with a config digest in its handshake.
type Snapshot struct {
	// Clones holds the open interval's histogram state, one per clone in
	// construction order: the one value table, grouped by each clone's
	// bins.
	Clones []histogram.Snapshot
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

// Snapshot captures the detector's full state. The result shares no
// memory with the detector.
func (d *Detector) Snapshot() Snapshot {
	s := Snapshot{
		Clones:   d.cur.Snapshots(),
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

// RestoreSnapshot replaces the detector's state with s: the open
// interval is emptied and the snapshot's clones merged into it. The
// detector must have been constructed with the snapshot's clone and bin
// counts; see Snapshot for the configuration-matching caveat. A rejected
// snapshot changes nothing.
func (d *Detector) RestoreSnapshot(s Snapshot) error {
	if err := d.checkSnapshot(s); err != nil {
		return err
	}
	d.cur.Reset()
	if err := d.cur.MergeSnapshot(s.Clones); err != nil {
		return err
	}
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
	return nil
}

// checkSnapshot validates s's shape against d without moving anything.
func (d *Detector) checkSnapshot(s Snapshot) error {
	if len(s.Prev) != len(d.prev) || len(s.KLPrev) != len(d.klPrev) {
		return fmt.Errorf("detector: restore snapshot with %d/%d clone histories into detector with %d clones",
			len(s.Prev), len(s.KLPrev), len(d.prev))
	}
	for _, prev := range s.Prev {
		if len(prev) != d.cfg.Bins {
			return fmt.Errorf("detector: restore snapshot with %d reference bins into detector with %d", len(prev), d.cfg.Bins)
		}
	}
	return d.cur.CheckSnapshots(s.Clones)
}

// DrainInterval snapshots the open interval's clones and resets them,
// without touching — or copying — the detection history. It is Snapshot
// restricted to the fields an interval drain actually moves: the
// distributed agent path drains every boundary, and paying a deep copy
// of reference counts, KL series, and threshold samples that are all
// zero on an agent (it never closes detection) was pure waste.
func (d *Detector) DrainInterval() []histogram.Snapshot {
	return d.drainInto(new(histogram.SnapshotMemory))
}

// drainInto is DrainInterval writing into m (see
// histogram.CloneSet.SnapshotsInto).
func (d *Detector) drainInto(m *histogram.SnapshotMemory) []histogram.Snapshot {
	clones := d.cur.SnapshotsInto(m)
	d.cur.Reset()
	return clones
}

// BankSnapshot is the exported state of a Bank: one detector snapshot
// per monitored feature, in the bank's feature order.
type BankSnapshot struct {
	Detectors []Snapshot
}

// Snapshot captures every detector's state, in feature order. It locks
// the bank, so it must not run concurrently with an in-flight
// ObserveBatch from the same goroutine chain that would deadlock.
func (b *Bank) Snapshot() BankSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BankSnapshot{Detectors: make([]Snapshot, len(b.detectors))}
	for i, d := range b.detectors {
		s.Detectors[i] = d.Snapshot()
	}
	return s
}

// RestoreSnapshot replaces every detector's state with the snapshot's,
// in feature order. The bank must monitor the same number of features
// with the same detector parameters as the snapshot's source. The whole
// snapshot is validated first, so a rejected one changes nothing.
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
		if err := d.RestoreSnapshot(s.Detectors[i]); err != nil {
			return err
		}
	}
	return nil
}

// DrainInterval snapshots and resets every detector's open interval in
// feature order (see Detector.DrainInterval), leaving detection history
// untouched and uncopied.
func (b *Bank) DrainInterval() [][]histogram.Snapshot {
	return b.DrainIntervalInto(nil, make([]histogram.SnapshotMemory, len(b.detectors)))
}

// DrainIntervalInto is DrainInterval writing into caller-held memory:
// detector i's snapshots live in mem[i] (len(mem) must be the detector
// count) and the per-detector slices are appended to dst[:0]. The
// result stays valid until mem is drained into again, so a caller that
// drains every interval and is done with each result before the next
// one allocates nothing in steady state.
func (b *Bank) DrainIntervalInto(dst [][]histogram.Snapshot, mem []histogram.SnapshotMemory) [][]histogram.Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	dst = dst[:0]
	for i, d := range b.detectors {
		dst = append(dst, d.drainInto(&mem[i]))
	}
	return dst
}

// AbsorbInterval folds drained clone snapshots — one slice per detector
// in feature order, as DrainInterval returns them — into the open
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
