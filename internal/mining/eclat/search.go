package eclat

import (
	"cmp"
	"math/bits"
	"slices"

	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
)

// entry is one candidate of a search level: an index into search.items
// and the support of the level's prefix extended by that item.
type entry struct{ item, support int32 }

// level holds the candidates that extend one prefix. Candidate k's tid
// bitset — the transactions containing the prefix and the item — is
// bits[k*words : (k+1)*words]; bits keeps room for one more bitset than
// there are entries, the intersection being tried.
type level struct {
	entries []entry
	bits    []uint64
}

// search is the depth-first equivalence-class search over tid bitsets.
// levels[0] holds the frequent 1-items (the roots) in canonical item
// order; levels[d+1] is rebuilt for every node of depth d and consumed
// by the recursion before the next node needs it, so one level per
// depth suffices — depth is bounded by the seven feature kinds, since
// two items of one kind never co-occur.
type search struct {
	n, words, minsup int
	items            []itemset.Item
	levels           [flow.NumFeatures + 1]level
	prefix           [flow.NumFeatures]itemset.Item
}

// begin readies s for n transactions at minimum support minsup, keeping
// the memory of earlier runs.
func (s *search) begin(n, minsup int) {
	s.n, s.words, s.minsup = n, (n+63)/64, minsup
	s.items = s.items[:0]
	s.levels[0].entries = s.levels[0].entries[:0]
}

// addRoot appends a frequent 1-item and returns its zeroed tid bitset.
// Roots must arrive in canonical item order; the returned slice is valid
// until the next addRoot.
func (s *search) addRoot(it itemset.Item, support int) []uint64 {
	roots := &s.levels[0]
	id := len(roots.entries)
	s.items = append(s.items, it)
	roots.entries = append(roots.entries, entry{int32(id), int32(support)})
	roots.bits = grow(roots.bits, (id+1)*s.words)
	b := roots.bits[id*s.words : (id+1)*s.words]
	clear(b)
	return b
}

// mine returns every frequent item-set below the roots, in depth-first
// order.
func (s *search) mine() []itemset.Set { return s.dfs(nil, 0) }

// dfs appends to out every frequent item-set made of prefix[:d] and
// entries of levels[d].
func (s *search) dfs(out []itemset.Set, d int) []itemset.Set {
	for i := range s.levels[d].entries {
		out = s.class(out, d, i)
	}
	return out
}

// class appends the equivalence class of entry i of levels[d]: the set
// prefix[:d] + its item, then every frequent extension of that set by
// later entries of the level. Items only ever extend a prefix in
// canonical order, so the prefix is a canonical item-set as it stands.
func (s *search) class(out []itemset.Set, d, i int) []itemset.Set {
	lv, next, w := &s.levels[d], &s.levels[d+1], s.words
	e := lv.entries[i]
	s.prefix[d] = s.items[e.item]
	out = append(out, itemset.Set{Items: slices.Clone(s.prefix[:d+1]), Support: int(e.support)})
	next.entries = next.entries[:0]
	a := lv.bits[i*w : (i+1)*w]
	for j := i + 1; j < len(lv.entries); j++ {
		f := lv.entries[j]
		// Two items of the same feature kind never co-occur.
		if s.items[f.item].Kind == s.prefix[d].Kind {
			continue
		}
		k := len(next.entries)
		next.bits = grow(next.bits, (k+1)*w)
		if sup := and(next.bits[k*w:(k+1)*w], a, lv.bits[j*w:(j+1)*w]); sup >= s.minsup {
			next.entries = append(next.entries, entry{f.item, int32(sup)})
		}
	}
	if len(next.entries) > 0 {
		out = s.dfs(out, d+1)
	}
	return out
}

// and stores a AND b into dst (all of one length) and returns the
// number of set bits — the support of the intersected tid sets.
func and(dst, a, b []uint64) int {
	n := 0
	for i := range dst {
		x := a[i] & b[i]
		dst[i] = x
		n += bits.OnesCount64(x)
	}
	return n
}

// grow returns s extended to at least n elements, keeping its contents;
// a capacity it must raise, it at least doubles.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:cap(s)]
	}
	return append(s[:cap(s)], make([]T, max(n, 2*cap(s))-cap(s))...)
}

// Scratch is a search plus the memory that turns transactions into its
// roots one feature column at a time, in three steps: count every value
// into a bucket by its hash; count exactly only the candidates, the
// values of the buckets that hold at least minsup transactions; set the
// frequent candidates' root bits. A bucket's count bounds each of its
// values' (Park, Chen & Yu, SIGMOD 1995), so the roots are exact and
// colliding values only make more candidates. Everything is grown on
// demand and kept, so mining same-shaped inputs through one Scratch
// allocates only the item-sets found. The zero value is ready to use; a
// Scratch must not be shared by concurrent callers.
type Scratch struct {
	search

	// buckets[:4<<bucketBits] counts the column in progress in four lanes
	// per bucket, so that a run of one value does not wait on one counter.
	buckets    [4 << maxBucketBits]int32
	bucketBits uint
	// The candidate table: index, linear probing at most a quarter full,
	// maps values to dense ids, 0 marking an empty slot, so growing it
	// renumbers nothing. Id 0 is every other value, with count 0; a
	// negative count, ^root, names a root.
	index      []int32
	indexShift uint
	values     []uint64
	counts     []int32
	// slot[tid] is the candidate id of transaction tid's value.
	slot []int32
	// frequent is closeColumn's sort buffer.
	frequent []frequentValue
}

type frequentValue struct {
	value uint64
	id    int32
}

const hashMul = 0x9e3779b97f4a7c15 // Fibonacci hashing

// There is about one bucket per 64 transactions, up to 1<<maxBucketBits
// (32 KB of lanes, so that step 1 runs in an L1 data cache).
const maxBucketBits, minIndex = 11, 64

// begin readies s for n transactions at minimum support minsup.
func (s *Scratch) begin(n, minsup int) {
	s.search.begin(n, minsup)
	s.bucketBits = uint(min(bits.Len(uint(n)>>6), maxBucketBits))
	s.values, s.counts = append(s.values[:0], 0), append(s.counts[:0], 0)
	s.resize(minIndex)
}

// column makes the roots of kind k. feed hands the column's values to
// count in transaction order, for step 1 and, if a bucket is heavy, step 2.
func (s *Scratch) column(k flow.FeatureKind, feed func(exact bool)) {
	buckets := s.buckets[:4<<s.bucketBits]
	clear(buckets)
	feed(false)
	heavy := false
	for i := 0; i < len(buckets); i += 4 {
		buckets[i] += buckets[i+1] + buckets[i+2] + buckets[i+3]
		heavy = heavy || int(buckets[i]) >= s.minsup
	}
	if heavy {
		s.slot = grow(s.slot, s.n)
		feed(true)
		s.closeColumn(k)
	}
}

// count runs step 1 or, if exact, step 2 over the values of col at rows,
// as transactions tid, tid+1, ...: a value's bucket is a field of its
// hash's top bits, and step 2 records every transaction's candidate id.
func count[T ~uint8 | ~uint16 | ~uint32 | ~uint64](s *Scratch, col []T, rows []int32, tid int, exact bool) {
	b, mask := &s.buckets, uint64(1<<s.bucketBits-1)<<(64-maxBucketBits)
	if !exact {
		for i, r := range rows {
			b[(uint64(col[r])*hashMul&mask)>>(62-maxBucketBits)|uint64(i&3)]++
		}
		return
	}
	slot, minsup := s.slot[tid:tid+len(rows)], s.minsup
	for i, r := range rows {
		v := uint64(col[r])
		h, id := v*hashMul, int32(0)
		if int(b[(h&mask)>>(62-maxBucketBits)]) >= minsup {
			if id = s.index[h<<maxBucketBits>>(s.indexShift&63)]; id == 0 || s.values[id] != v {
				id = s.find(v)
			}
			s.counts[id]++
		}
		slot[i] = id
	}
}

// probe returns v's index slot: the one holding its id, or the empty one.
func (s *Scratch) probe(v uint64) uint64 {
	i, mask := v*hashMul<<maxBucketBits>>(s.indexShift&63), uint64(len(s.index)-1)
	for s.index[i] != 0 && s.values[s.index[i]] != v {
		i = (i + 1) & mask
	}
	return i
}

// find returns the candidate id of v, making v a candidate if it is none.
func (s *Scratch) find(v uint64) int32 {
	i := s.probe(v)
	if id := s.index[i]; id != 0 {
		return id
	}
	id := int32(len(s.values))
	s.index[i], s.values, s.counts = id, append(s.values, v), append(s.counts, 0)
	if 4*len(s.values) > len(s.index) {
		s.resize(2 * len(s.index))
	}
	return id
}

// resize empties the index at size slots, a power of two, and enters
// every candidate again.
func (s *Scratch) resize(size int) {
	s.index = grow(s.index, size)[:size]
	clear(s.index)
	s.indexShift = uint(64 - bits.TrailingZeros(uint(size)))
	for id := 1; id < len(s.values); id++ {
		s.index[s.probe(s.values[id])] = int32(id)
	}
}

// closeColumn ends the column in progress, whose values are items of
// kind k: the values that at least minsup transactions hold become
// roots, in ascending value order, each with the bitset of the
// transactions holding it; the table is left empty for the next column.
func (s *Scratch) closeColumn(k flow.FeatureKind) {
	s.frequent = s.frequent[:0]
	for id, c := range s.counts {
		if int(c) >= s.minsup {
			s.frequent = append(s.frequent, frequentValue{s.values[id], int32(id)})
		}
	}
	slices.SortFunc(s.frequent, func(a, b frequentValue) int { return cmp.Compare(a.value, b.value) })
	for _, f := range s.frequent {
		root := len(s.items)
		s.addRoot(itemset.Item{Kind: k, Value: f.value}, int(s.counts[f.id]))
		s.counts[f.id] = ^int32(root)
	}
	if len(s.frequent) > 0 {
		roots, w, counts := s.levels[0].bits, s.words, s.counts
		for tid, id := range s.slot[:s.n] {
			if c := counts[id]; c < 0 {
				roots[int(^c)*w+tid>>6] |= 1 << (tid & 63)
			}
		}
	}
	s.values, s.counts = s.values[:1], s.counts[:1]
	s.resize(minIndex)
}
