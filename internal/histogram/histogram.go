// Package histogram implements the randomized histograms ("clones") of
// §II-C/D: fixed-width count histograms whose bins are assigned by a
// seeded hash of the feature value, the Kullback–Leibler distance between
// interval distributions, and the iterative identification of the bins
// responsible for a KL spike.
//
// The paper keeps, per clone, bin counts plus "a map of bins and
// corresponding feature values". A value's bin is a pure function of the
// value, so the n clones of one feature hold the same value → count map
// and differ only in how they bin it. A CloneSet therefore stores that
// map once — one arena-backed value table per feature — and the clones'
// bin counts are a view derived from it by one sweep over the distinct
// values when they are first read after a change (at the interval
// close). Ingest is one table insert per feature per record; merging
// shards adds value counts once per feature. See docs/ARCHITECTURE.md,
// "The mergeable-sketch invariant".
package histogram

import (
	"math"
	"slices"
	"sync/atomic"

	"anomalyx/internal/hash"
)

// CloneSet is the n randomized histograms of one feature over one
// measurement interval: one value → flow-count table shared by all
// clones, the clones' hash functions, and the per-clone bin counts
// derived from the table. It is not safe for concurrent use — even
// Counts may write, since it derives the bins on demand.
type CloneSet struct {
	fns    []hash.Func
	k      int
	values valueTable // value -> flow count: the set's whole state

	// The derived view: per-clone bin counts and the observation total,
	// valid unless stale (values changed since they were derived).
	counts [][]uint64
	total  uint64
	stale  bool

	binPos []int32 // AppendValuesInBins scratch: bin -> list position
	binCnt []int   // AppendValuesInBins scratch: per-position tallies
}

// NewCloneSet creates a set of len(fns) clones with k bins each; clone c
// bins with fns[c].
func NewCloneSet(k int, fns []hash.Func) *CloneSet {
	if k <= 0 {
		panic("histogram: k must be positive")
	}
	s := &CloneSet{fns: slices.Clone(fns), k: k, counts: make([][]uint64, len(fns))}
	for c := range s.counts {
		s.counts[c] = make([]uint64, k)
	}
	return s
}

// Add records one observation of feature value v in every clone.
func (s *CloneSet) Add(v uint64) { s.AddN(v, 1) }

// AddN records n observations of feature value v. On a warmed-up set
// (second interval onward, similar traffic mix) it allocates nothing: the
// value table's arena survives Reset.
func (s *CloneSet) AddN(v, n uint64) {
	s.values.add(v, n)
	s.stale = true
}

// Total returns the number of observations added since the last Reset.
func (s *CloneSet) Total() uint64 {
	s.bin()
	return s.total
}

// Counts returns clone c's per-bin counts as a borrowed view: the caller
// must not modify it or retain it past the set's next change.
func (s *CloneSet) Counts(c int) []uint64 {
	s.bin()
	return s.counts[c]
}

// bin derives every clone's bin counts and the total from the value
// table, if it changed since the last derivation: one sweep over the
// distinct values, n bin hashes each.
func (s *CloneSet) bin() {
	if !s.stale {
		return
	}
	for _, cs := range s.counts {
		clear(cs)
	}
	var total uint64
	s.values.forEach(func(v, n uint64) {
		total += n
		for c, fn := range s.fns {
			s.counts[c][fn.Bin(v, s.k)] += n
		}
	})
	s.total, s.stale = total, false
}

// AppendValuesInBins appends to dst the distinct values clone c bins
// into each listed bin — grouped in list order, each group ascending —
// and returns the extended slice. It passes over the value table twice
// regardless of len(bins); this is the accessor for the detector's
// anomalous-bin → value mapping. bins must not repeat (the
// identification's removal sequence never does); a repeated bin
// contributes its values once, at its first position. Only the appended
// region is written, and the returned slice aliases dst's backing array
// like append.
func (s *CloneSet) AppendValuesInBins(c int, dst []uint64, bins []int) []uint64 {
	if s.values.n == 0 || len(bins) == 0 {
		return dst
	}
	fn, k := s.fns[c], s.k
	if s.binPos == nil {
		s.binPos = make([]int32, k)
	}
	// pos maps bin -> 1 + its position in bins; 0 means unlisted.
	pos := s.binPos
	for i, b := range bins {
		if pos[b] == 0 {
			pos[b] = int32(i + 1)
		}
	}
	// Counting sort by list position: tally, prefix-sum, place, then
	// sort each bin's range by plain value compare.
	if cap(s.binCnt) < len(bins)+1 {
		s.binCnt = make([]int, len(bins)+1)
	}
	cnt := s.binCnt[:len(bins)+1]
	clear(cnt)
	s.values.forEach(func(v, _ uint64) {
		if p := pos[fn.Bin(v, k)]; p != 0 {
			cnt[p]++
		}
	})
	total := 0
	for i := 1; i < len(cnt); i++ {
		cnt[i], total = total, total+cnt[i]
	}
	start := len(dst)
	dst = slices.Grow(dst, total)[:start+total]
	s.values.forEach(func(v, _ uint64) {
		if p := pos[fn.Bin(v, k)]; p != 0 {
			dst[start+cnt[p]] = v
			cnt[p]++
		}
	})
	prev := 0
	for i := 1; i < len(cnt); i++ { // cnt[i] is now position i's end
		slices.Sort(dst[start+prev : start+cnt[i]])
		prev = cnt[i]
	}
	for _, b := range bins { // clear the marks for the next call
		pos[b] = 0
	}
	return dst
}

// Merge folds other's observations into s: per-value counts add, once
// per feature, and every clone's bins follow. Clone sets are exact
// mergeable sketches — with equal hash functions the merged state is
// identical to having added every observation to s directly, which is
// what makes cross-shard merges byte-identical to an unsharded run.
// Merge panics when the bin counts or hash functions differ. other is
// left unchanged.
func (s *CloneSet) Merge(other *CloneSet) {
	if s.k != other.k || !slices.Equal(s.fns, other.fns) {
		panic("histogram: Merge over different bin counts or hash functions")
	}
	other.values.forEach(func(v, n uint64) { s.values.add(v, n) })
	s.stale = true
}

// Reset clears the set for the next interval. The value table's arena is
// recycled, not freed: the next interval's adds reuse its capacity, so
// steady-state ingestion does not allocate.
func (s *CloneSet) Reset() {
	s.values.reset()
	s.stale = true
}

// Histogram is one randomized histogram over one interval: the
// single-clone case of CloneSet.
type Histogram struct {
	set   *CloneSet
	track bool
}

// New creates a histogram with k bins using hash function fn. When
// trackValues is true its snapshots carry the feature values per bin.
func New(k int, fn hash.Func, trackValues bool) *Histogram {
	return &Histogram{set: NewCloneSet(k, []hash.Func{fn}), track: trackValues}
}

// Add records one observation of feature value v.
func (h *Histogram) Add(v uint64) { h.set.Add(v) }

// Snapshot captures the histogram's current-interval state (see
// CloneSet.Snapshots); Values is nil unless the histogram tracks values.
func (h *Histogram) Snapshot() Snapshot {
	s := h.set.Snapshots()[0]
	if !h.track {
		s.Values = nil
	}
	return s
}

// Reset clears the histogram for the next interval (see CloneSet.Reset).
func (h *Histogram) Reset() { h.set.Reset() }

// smoothingAlpha is the Laplace pseudo-count used when normalizing bin
// counts into distributions. The paper does not specify its zero-bin
// handling; additive smoothing keeps D(p||q) finite when a bin is empty
// in the reference interval — exactly the "new traffic appears in a bin"
// case an anomaly produces — while preserving D(p||p) = 0.
const smoothingAlpha = 0.5

// KL returns the Kullback–Leibler distance D(p || q) between two per-bin
// count vectors of equal length, after Laplace smoothing:
//
//	D(p||q) = Σ_i p_i log2(p_i / q_i)
//
// Coinciding distributions give 0; deviations give positive values
// (§II-C). The logarithm is base 2, so the distance is in bits.
//
// Within one call the smoothed p_i and q_i, and so log2(p_i/q_i), are
// functions of the bin counts (p[i], q[i]) alone, and a quiet interval's
// 1 024 bins hold only a few hundred distinct small pairs. The log is
// therefore memoized per pair of counts below klMemoBound; everything
// else — each p_i, each product and the bin-order sum — is computed as
// if there were no memo, so the result is bit-identical to the plain
// loop (see docs/ARCHITECTURE.md, "The quiet close").
func KL(p, q []uint64) float64 {
	if len(p) != len(q) {
		panic("histogram: KL over different bin counts")
	}
	k := float64(len(p))
	var np, nq float64
	for i := range p {
		np += float64(p[i])
		nq += float64(q[i])
	}
	np += smoothingAlpha * k
	nq += smoothingAlpha * k
	m := claimKLMemo()
	var epoch uint32
	if m != nil {
		epoch = m.next()
	}
	var d float64
	for i := range p {
		pi := (float64(p[i]) + smoothingAlpha) / np
		var l float64
		if m != nil && p[i] < klMemoBound && q[i] < klMemoBound {
			e := &m.slots[p[i]*klMemoBound+q[i]]
			if e.epoch == epoch {
				l = e.log
			} else {
				qi := (float64(q[i]) + smoothingAlpha) / nq
				l = math.Log2(pi / qi)
				e.epoch, e.log = epoch, l
			}
		} else {
			qi := (float64(q[i]) + smoothingAlpha) / nq
			l = math.Log2(pi / qi)
		}
		d += pi * l
	}
	if m != nil {
		m.claimed.Store(false)
	}
	if d < 0 {
		d = 0 // numerical floor; KL is non-negative
	}
	return d
}

// klMemoBound bounds the bin counts whose log ratio KL memoizes: each
// pair with both counts below it has its own klMemo slot.
const klMemoBound = 32

// klMemo is a log cache for one KL call at a time, indexed by
// p*klMemoBound+q. A slot is valid only in the call whose epoch it
// carries, so a call starts by advancing the epoch instead of clearing
// the table.
type klMemo struct {
	claimed atomic.Bool
	epoch   uint32
	slots   [klMemoBound * klMemoBound]struct {
		epoch uint32
		log   float64
	}
}

// klMemos are the caches KL calls take turns on. They are fixed, not
// pooled, so KL never allocates: an allocation count stays exact, even
// under the race detector, which makes sync.Pool drop entries at random.
var klMemos [8]klMemo

// claimKLMemo claims the first free memo, or returns nil when every one
// is in use (more concurrent KL calls than memos): that call runs the
// plain loop, which changes its speed, not its result.
func claimKLMemo() *klMemo {
	for i := range klMemos {
		if m := &klMemos[i]; m.claimed.CompareAndSwap(false, true) {
			return m
		}
	}
	return nil
}

// next starts a call: it advances the epoch and returns it, clearing the
// slots only when the epoch wraps (once per 2^32 calls).
func (m *klMemo) next() uint32 {
	if m.epoch++; m.epoch == 0 {
		clear(m.slots[:])
		m.epoch = 1
	}
	return m.epoch
}
