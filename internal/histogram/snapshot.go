package histogram

import "fmt"

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
// The per-bin Values slices share backing arrays (adjacent sub-slices of
// one arena, capacity-clipped so appends cannot bleed across bins), and
// so do the Counts and Values of the clones of one set. That is
// invisible to readers and to DeepEqual; it only means a caller must not
// grow one slice in place and expect the arena to stay intact — treat a
// Snapshot as immutable plain data.
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

// SnapshotMemory is reusable backing memory for CloneSet.SnapshotsInto:
// the result's snapshot headers, one arena each for every clone's bin
// counts, bin headers and value entries, and the sort scratch. A caller
// that drains a set every interval keeps one SnapshotMemory per set and
// hands it back once it is done with the previous result, so the
// steady-state drain allocates nothing. The zero value is ready to use.
type SnapshotMemory struct {
	snaps  []Snapshot
	counts []uint64
	heads  [][]ValueCount
	ents   []ValueCount

	sorted, tmp []ValueCount // value-ordered entries and the radix ping-pong buffer
	bins        []int32      // per sorted entry: its bin in the current clone
	offs        []int        // per bin: placement cursor
}

// Snapshots captures the set's current-interval state, one Snapshot per
// clone, each grouping the one value table by that clone's bins. The
// result shares no memory with the set or with any other call's result.
func (s *CloneSet) Snapshots() []Snapshot {
	return s.SnapshotsInto(new(SnapshotMemory))
}

// SnapshotsInto is Snapshots writing into m's memory: the result stays
// valid until m is passed to SnapshotsInto again, and shares no memory
// with the set. The distinct values are put in ascending order once, by
// a radix sort; each clone is then a stable counting sort of that order
// by bin — tally, prefix-sum, place — so every bin comes out ascending
// with no per-bin sort, and the clones share one allocation each for
// counts, bin headers and entries.
func (s *CloneSet) SnapshotsInto(m *SnapshotMemory) []Snapshot {
	n, k, nc := s.values.n, s.k, len(s.fns)
	var total uint64
	sorted := resize(m.sorted, n)[:0]
	s.values.forEach(func(v, c uint64) {
		sorted = append(sorted, ValueCount{v, c})
		total += c
	})
	m.tmp = resize(m.tmp, n)
	m.sorted = sorted
	sorted = sortByValue(sorted, m.tmp)

	m.counts = resize(m.counts, nc*k)
	clear(m.counts)
	m.heads = resize(m.heads, nc*k)
	clear(m.heads)
	m.ents = resize(m.ents, nc*n)
	m.bins = resize(m.bins, n)
	m.offs = resize(m.offs, k+1)
	m.snaps = resize(m.snaps, nc)
	for c, fn := range s.fns {
		counts := m.counts[c*k : (c+1)*k : (c+1)*k]
		heads := m.heads[c*k : (c+1)*k : (c+1)*k]
		m.snaps[c] = Snapshot{Counts: counts, Total: total, Values: heads}
		if n == 0 {
			continue
		}
		offs, bins := m.offs, m.bins
		clear(offs)
		for i, e := range sorted {
			b := int32(fn.Bin(e.Value, k))
			bins[i] = b
			offs[b+1]++
			counts[b] += e.Count
		}
		for b := 0; b < k; b++ {
			offs[b+1] += offs[b]
		}
		ents := m.ents[c*n : (c+1)*n]
		// offs[b] doubles as bin b's placement cursor; after this pass
		// it holds bin b's end, and bin b-1's end is its start.
		for i, e := range sorted {
			ents[offs[bins[i]]] = e
			offs[bins[i]]++
		}
		start := 0
		for b, end := range offs[:k] {
			if end > start {
				heads[b] = ents[start:end:end]
			}
			start = end
		}
	}
	return m.snaps
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortByValue orders ents ascending by Value with an LSD radix sort
// over only the key bytes that vary across ents — one or two passes for
// ports, four for addresses — and returns the sorted slice, which is
// ents or tmp (len(tmp) >= len(ents)).
func sortByValue(ents, tmp []ValueCount) []ValueCount {
	var diff uint64
	for _, e := range ents {
		diff |= e.Value ^ ents[0].Value
	}
	src, dst := ents, tmp[:len(ents)]
	var offs [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		clear(offs[:])
		for _, e := range src {
			offs[byte(e.Value>>shift)]++
		}
		sum := 0
		for d, c := range offs {
			offs[d], sum = sum, sum+c
		}
		for _, e := range src {
			d := byte(e.Value >> shift)
			dst[offs[d]] = e
			offs[d]++
		}
		src, dst = dst, src
	}
	return src
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

// MergeChecked folds per-clone snapshots (as Snapshots returns them)
// into the set additively: clone 0's values enter the one table, and
// every clone's bins follow from it. It is Merge with the sibling in
// snapshot form, so a collector absorbs a shipped interval without
// restoring it into a scratch set first. ss must already have passed
// CheckSnapshots against this set — a caller folding several sets
// validates them all first, so a bad snapshot cannot leave a fold half
// done; unvalidated input is a caller bug. The hash functions cannot be
// checked (see Snapshot).
func (s *CloneSet) MergeChecked(ss []Snapshot) {
	s.values.ensure(entryCount(ss[0]))
	for _, vs := range ss[0].Values {
		for _, vc := range vs {
			s.values.add(vc.Value, vc.Count)
		}
	}
	s.stale = true
}

// entryCount returns the number of value entries in hs.
func entryCount(hs Snapshot) int {
	n := 0
	for _, vs := range hs.Values {
		n += len(vs)
	}
	return n
}
