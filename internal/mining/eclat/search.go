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

// grow returns s extended to at least n elements, keeping its contents.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:cap(s)]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// Scratch is a search plus the memory that turns transactions into its
// roots one feature column at a time: a counting table, and per
// transaction the table slot of its value. Everything is grown on demand
// and kept, so mining same-shaped inputs through one Scratch allocates
// only the item-sets found. The zero value is ready to use; a Scratch
// must not be shared by concurrent callers.
type Scratch struct {
	search

	// The counting table of the column in progress: open addressing with
	// linear probing over a power-of-two capacity of at least twice the
	// transaction count, so it never fills. counts[h] == 0 marks slot h
	// empty; used lists the occupied slots, so closing a column visits
	// and clears only what the column touched.
	keys   []uint64
	counts []int32
	used   []int32
	shift  uint
	// slot[tid] is the table slot holding transaction tid's value.
	slot []int32
	// frequent is closeColumn's sort buffer.
	frequent []frequentValue
}

type frequentValue struct {
	value uint64
	slot  int32
}

// begin readies s for n transactions at minimum support minsup.
func (s *Scratch) begin(n, minsup int) {
	s.search.begin(n, minsup)
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if len(s.keys) < size {
		s.keys, s.counts = make([]uint64, size), make([]int32, size)
	}
	s.shift = uint(64 - bits.TrailingZeros(uint(len(s.keys))))
	s.slot = grow(s.slot, n)
}

// add counts one occurrence of v in the column in progress and returns
// v's table slot.
func (s *Scratch) add(v uint64) int32 {
	h := (v * 0x9e3779b97f4a7c15) >> s.shift
	for {
		switch {
		case s.counts[h] == 0:
			s.keys[h], s.counts[h] = v, 1
			s.used = append(s.used, int32(h))
			return int32(h)
		case s.keys[h] == v:
			s.counts[h]++
			return int32(h)
		}
		h = (h + 1) & uint64(len(s.keys)-1)
	}
}

// closeColumn ends the column in progress, whose values are items of
// kind k: the values that at least minsup transactions hold become
// roots, in ascending value order, each with the bitset of the
// transactions holding it; the table is left empty for the next column.
func (s *Scratch) closeColumn(k flow.FeatureKind) {
	s.frequent = s.frequent[:0]
	for _, h := range s.used {
		if int(s.counts[h]) >= s.minsup {
			s.frequent = append(s.frequent, frequentValue{s.keys[h], h})
		}
	}
	slices.SortFunc(s.frequent, func(a, b frequentValue) int { return cmp.Compare(a.value, b.value) })
	for _, f := range s.frequent {
		id := len(s.items)
		s.addRoot(itemset.Item{Kind: k, Value: f.value}, int(s.counts[f.slot]))
		// A negative count now names the value's root: ^id.
		s.counts[f.slot] = ^int32(id)
	}
	if len(s.frequent) > 0 {
		roots, w := s.levels[0].bits, s.words
		for tid, h := range s.slot[:s.n] {
			if c := s.counts[h]; c < 0 {
				roots[int(^c)*w+tid>>6] |= 1 << (tid & 63)
			}
		}
	}
	for _, h := range s.used {
		s.counts[h] = 0
	}
	s.used = s.used[:0]
}
