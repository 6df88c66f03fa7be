package histogram

import (
	"cmp"
	"fmt"
	"slices"
)

// ValueCount is one (feature value, observation count) pair of a bin's
// tracked values.
type ValueCount struct {
	Value uint64
	Count uint64
}

// Snapshot is the exported, plain-data state of one clone: everything
// that accumulates between Resets, in a canonical form suitable for
// serialization. Counts is always a private copy (never an alias of the
// live set) and each bin's Values slice is sorted ascending by Value, so
// two sets holding the same observations always yield deeply equal —
// and, once serialized, byte-identical — snapshots regardless of
// insertion or table-iteration order.
//
// The per-bin Values slices share one backing array (they are adjacent
// sub-slices of a single slab, capacity-clipped so appends cannot bleed
// across bins). That is invisible to readers and to DeepEqual; it only
// means a caller must not grow one bin's slice in place and expect the
// slab to stay intact — treat a Snapshot as immutable plain data.
//
// A Snapshot does not carry the hash function or bin count as
// configuration: restoring requires a set already constructed with the
// matching parameters (both sides of a wire transfer build their sets
// from the same detector Config and Seed).
type Snapshot struct {
	// Counts holds the per-bin counts; its length is the bin count K.
	Counts []uint64
	// Total is the observation count (the sum of Counts).
	Total uint64
	// Values is nil when value tracking is disabled; otherwise one slice
	// per bin (nil for untouched bins), sorted ascending by Value.
	Values [][]ValueCount
}

// Snapshots captures the set's current-interval state, one Snapshot per
// clone, each grouping the one value table by that clone's bins. The
// result shares no memory with the set. Each clone's flatten is a
// counting sort that also sums the clone's bin counts: bin and tally
// every entry, carve the clone's slab into per-bin ranges by prefix sum,
// place, and sort each (small) range ascending by value.
func (s *CloneSet) Snapshots() []Snapshot {
	var total uint64
	ents := make([]ValueCount, 0, s.values.n)
	s.values.forEach(func(v, n uint64) {
		ents = append(ents, ValueCount{v, n})
		total += n
	})
	bins := make([]int32, len(ents))
	offs := make([]int, s.k+1)
	out := make([]Snapshot, len(s.fns))
	for c, fn := range s.fns {
		out[c] = Snapshot{Counts: make([]uint64, s.k), Total: total, Values: make([][]ValueCount, s.k)}
		if len(ents) == 0 {
			continue
		}
		clear(offs)
		for i, e := range ents {
			b := int32(fn.Bin(e.Value, s.k))
			bins[i] = b
			offs[b+1]++
			out[c].Counts[b] += e.Count
		}
		for b := 0; b < s.k; b++ {
			offs[b+1] += offs[b]
		}
		// offs[b] doubles as bin b's placement cursor; after this pass
		// it holds bin b's end, and bin b-1's end is its start.
		slab := make([]ValueCount, len(ents))
		for i, e := range ents {
			slab[offs[bins[i]]] = e
			offs[bins[i]]++
		}
		start := 0
		for b, end := range offs[:s.k] {
			if end > start {
				vs := slab[start:end:end]
				slices.SortFunc(vs, func(a, b ValueCount) int { return cmp.Compare(a.Value, b.Value) })
				out[c].Values[b] = vs
			}
			start = end
		}
	}
	return out
}

// CheckSnapshots reports whether ss can be merged into s without an
// error, moving nothing: one snapshot per clone, each with s's bin count
// and tracked values, and — because the clones of one
// feature share one value table — all carrying the same Total, each
// clone's counts summing to it, and the same number of value entries,
// whose counts also sum to it. Callers that fold several sets validate
// every one of them first, so a bad snapshot cannot leave a fold half
// done.
func (s *CloneSet) CheckSnapshots(ss []Snapshot) error {
	if len(ss) != len(s.fns) {
		return fmt.Errorf("histogram: %d clone snapshots for a set of %d clones", len(ss), len(s.fns))
	}
	entries := -1
	for c, hs := range ss {
		if len(hs.Counts) != s.k || hs.Values == nil || len(hs.Values) != s.k {
			return fmt.Errorf("histogram: clone %d snapshot has %d bins (%d tracked), want %d tracked",
				c, len(hs.Counts), len(hs.Values), s.k)
		}
		var sum uint64
		for _, n := range hs.Counts {
			sum += n
		}
		n := 0
		var valSum uint64
		for _, vs := range hs.Values {
			n += len(vs)
			for _, vc := range vs {
				valSum += vc.Count
			}
		}
		if entries < 0 {
			entries = n
		}
		if hs.Total != ss[0].Total || sum != hs.Total || valSum != hs.Total || n != entries {
			return fmt.Errorf("histogram: clone %d snapshot (total %d, %d values) disagrees with clone 0's (total %d, %d values)",
				c, hs.Total, n, ss[0].Total, entries)
		}
	}
	return nil
}

// MergeSnapshot folds per-clone snapshots (as Snapshots returns them)
// into the set additively: clone 0's values enter the one table, and
// every clone's bins follow from it. It is Merge with the sibling in
// snapshot form, so a distributed collector can absorb a shipped
// interval without restoring it into a scratch set first; a restore is
// Reset then MergeSnapshot. ss must pass CheckSnapshots; the hash
// functions cannot be checked (see Snapshot).
func (s *CloneSet) MergeSnapshot(ss []Snapshot) error {
	if err := s.CheckSnapshots(ss); err != nil {
		return err
	}
	s.values.ensure(entryCount(ss[0]))
	for _, vs := range ss[0].Values {
		for _, vc := range vs {
			s.values.add(vc.Value, vc.Count)
		}
	}
	s.stale = true
	return nil
}

// entryCount returns the number of value entries in hs.
func entryCount(hs Snapshot) int {
	n := 0
	for _, vs := range hs.Values {
		n += len(vs)
	}
	return n
}
