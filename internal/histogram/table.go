package histogram

import "math/bits"

// valueTable is a clone set's whole state: a specialized open-addressing
// hash table from feature value to observation count (uint64 → uint64,
// linear probing, power-of-two capacity). It replaces the literal
// per-bin, per-clone map[uint64]uint64 of §II-D's "map of bins and
// corresponding feature values": a value's bin is a pure function of the
// value (each clone's seeded hash), so one flat value → count table per
// feature carries exactly the information of a map per bin per clone —
// each clone's bin counts and per-bin values are recovered by binning
// the table's entries with that clone's hash (CloneSet.bin,
// AppendValuesInBins, Snapshots).
//
// All storage lives in one arena — a single []uint64 allocation holding
// the key slots, the count slots, and the occupancy bitmap. reset
// clears only the bitmap and keeps the arena, so a set that has seen one
// full interval allocates nothing on the next: steady-state AddN is
// allocation-free, which is what removes the map churn from the
// ingestion hot path (every interval used to rebuild ~one map per
// non-empty bin, each with its own growth reallocations).
//
// Determinism: the table's iteration order depends on insertion history
// (like a map's, though it is at least stable), so it is never exposed.
// Every reader that feeds report or snapshot bytes — AppendValuesInBins,
// Snapshots — sorts before returning, and bin counts are sums, which do
// not depend on order.
type valueTable struct {
	keys   []uint64 // arena[0:cap]; stale slots are masked by the bitmap
	counts []uint64 // arena[cap:2cap]
	bits   []uint64 // arena[2cap:]; one occupancy bit per slot
	mask   uint64   // len(keys) - 1 (capacity is a power of two)
	n      int      // occupied slots

	// Shrink bookkeeping (see reset): consecutive resets whose
	// occupancy stayed far below capacity, and the largest such
	// occupancy — the recent working set the arena decays to.
	lowStreak int
	lowMax    int
}

// tableMinSlots is the capacity of the first arena. Small, because many
// features see few distinct values; the table doubles as needed and
// keeps its capacity across Resets (the arena is the point), decaying
// only after a sustained occupancy drop — see reset.
const tableMinSlots = 16

// The shrink policy: after tableShrinkAfter consecutive resets whose
// occupancy stayed below capacity/tableShrinkFraction, the arena
// reallocates down to fit the largest of those intervals (with 2x
// headroom). A cardinality spike — a spoofed-source flood is exactly
// the traffic this detector exists to flag — would otherwise pin its
// worst-case arena in every feature forever; decay restores the
// transient-peak memory profile the per-bin maps had, while the
// steady-state reset stays allocation-free (a stable traffic mix never
// trips the fraction).
const (
	tableShrinkFraction = 8
	tableShrinkAfter    = 4
)

// tableSlot mixes a feature value into a slot hash. Feature values are
// heavily structured (sequential ports, adjacent addresses), so linear
// probing needs a finalizer with full avalanche to avoid clustering;
// this is the murmur3 fmix64, the same mixer the clones' bin hash
// builds on.
func tableSlot(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// occupied reports whether slot i holds a live entry.
func (t *valueTable) occupied(i uint64) bool {
	return t.bits[i>>6]&(1<<(i&63)) != 0
}

// init allocates a fresh arena with capSlots slots (a power of two).
func (t *valueTable) init(capSlots int) {
	words := (capSlots + 63) >> 6
	arena := make([]uint64, 2*capSlots+words)
	t.keys = arena[:capSlots:capSlots]
	t.counts = arena[capSlots : 2*capSlots : 2*capSlots]
	t.bits = arena[2*capSlots:]
	t.mask = uint64(capSlots - 1)
	t.n = 0
}

// slot returns the index where v lives (found) or would be inserted
// (!found). The load-factor bound guarantees an empty slot exists, so
// the probe always terminates.
func (t *valueTable) slot(v uint64) (i uint64, found bool) {
	i = tableSlot(v) & t.mask
	for {
		if !t.occupied(i) {
			return i, false
		}
		if t.keys[i] == v {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// ensure makes room for extra more entries, growing the arena so the
// load factor stays below 3/4. Growth is the only allocation the table
// ever performs, and reset never undoes it.
func (t *valueTable) ensure(extra int) {
	need := t.n + extra
	if t.keys != nil && 4*need <= 3*len(t.keys) {
		return
	}
	capSlots := tableMinSlots
	for 4*need > 3*capSlots {
		capSlots <<= 1
	}
	if capSlots <= len(t.keys) {
		return
	}
	oldKeys, oldCounts, oldBits := t.keys, t.counts, t.bits
	t.init(capSlots)
	for w, word := range oldBits {
		for ; word != 0; word &= word - 1 {
			i := uint64(w<<6) + uint64(bits.TrailingZeros64(word))
			j, _ := t.slot(oldKeys[i])
			t.keys[j] = oldKeys[i]
			t.counts[j] = oldCounts[i]
			t.bits[j>>6] |= 1 << (j & 63)
			t.n++
		}
	}
}

// add inserts v with count n, or adds n to v's existing count. Like the
// map code it replaces (m[v] += n), adding zero still creates the
// entry — a zero-count value is present, and snapshots carry it.
func (t *valueTable) add(v, n uint64) {
	t.ensure(1)
	i, found := t.slot(v)
	if found {
		t.counts[i] += n
		return
	}
	t.keys[i] = v
	t.counts[i] = n
	t.bits[i>>6] |= 1 << (i & 63)
	t.n++
}

// addColumn adds one observation of every value in col, in order —
// exactly add(v, 1) per value, including when the arena grows, with the
// probe inlined: between growth checks the loop inserts as many values
// as the load-factor bound leaves room for, since each adds at most one
// entry.
func addColumn[T uint8 | uint16 | uint32 | uint64](t *valueTable, col []T) {
	for len(col) > 0 {
		t.ensure(1)
		room := 3*len(t.keys)/4 - t.n
		chunk := col[:min(room, len(col))]
		col = col[len(chunk):]
		keys, counts, occ, mask, n := t.keys, t.counts, t.bits, t.mask, t.n
		for _, x := range chunk {
			v := uint64(x)
			i := tableSlot(v) & mask
			for {
				w, bit := occ[i>>6], uint64(1)<<(i&63)
				if w&bit == 0 {
					keys[i], counts[i] = v, 1
					occ[i>>6] = w | bit
					n++
					break
				}
				if keys[i] == v {
					counts[i]++
					break
				}
				i = (i + 1) & mask
			}
		}
		t.n = n
	}
}

// get returns v's count and whether v is present.
func (t *valueTable) get(v uint64) (uint64, bool) {
	if t.n == 0 {
		return 0, false
	}
	i, found := t.slot(v)
	if !found {
		return 0, false
	}
	return t.counts[i], true
}

// reset empties the table, normally keeping the arena: only the
// occupancy bitmap is cleared (stale keys and counts are unreachable
// through it). This is the per-interval recycle — after the first
// interval warms the arena, Reset + the next interval's adds allocate
// nothing. The one exception is sustained shrink (see the
// tableShrinkFraction commentary): when occupancy has stayed far below
// capacity for several consecutive intervals, the arena reallocates
// down to the recent working set so a one-off cardinality spike does
// not pin its peak memory for the process lifetime.
func (t *valueTable) reset() {
	if len(t.keys) > tableMinSlots && t.n < len(t.keys)/tableShrinkFraction {
		if t.lowMax < t.n {
			t.lowMax = t.n
		}
		if t.lowStreak++; t.lowStreak >= tableShrinkAfter {
			capSlots := tableMinSlots
			for need := 2 * t.lowMax; 4*need > 3*capSlots; {
				capSlots <<= 1
			}
			t.lowStreak, t.lowMax = 0, 0
			if capSlots < len(t.keys) {
				t.init(capSlots) // fresh arena: already empty
				return
			}
		}
	} else {
		t.lowStreak, t.lowMax = 0, 0
	}
	for i := range t.bits {
		t.bits[i] = 0
	}
	t.n = 0
}

// forEach calls f for every live (value, count) entry, in slot order.
// Slot order depends on insertion history, so callers that expose the
// result must sort first — see the determinism note on the type.
func (t *valueTable) forEach(f func(v, n uint64)) {
	for w, word := range t.bits {
		for ; word != 0; word &= word - 1 {
			i := uint64(w<<6) + uint64(bits.TrailingZeros64(word))
			f(t.keys[i], t.counts[i])
		}
	}
}
