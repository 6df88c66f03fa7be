package histogram

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"anomalyx/internal/hash"
)

// mapHistogram is the reference model: the literal single-clone,
// map-per-bin histogram this package shipped before the value table and
// before the clones of a feature came to share one table. The
// differential tests drive a CloneSet and one mapHistogram per clone
// through the same program and require identical observable state —
// snapshots, totals, per-bin counts and values — so both refactors are
// proven behaviour-preserving rather than assumed.
type mapHistogram struct {
	fn     hash.Func
	k      int
	counts []uint64
	total  uint64
	values []map[uint64]uint64
}

func newMapHistogram(k int, fn hash.Func) *mapHistogram {
	return &mapHistogram{fn: fn, k: k, counts: make([]uint64, k), values: make([]map[uint64]uint64, k)}
}

func (m *mapHistogram) addN(v, n uint64) {
	b := m.fn.Bin(v, m.k)
	m.counts[b] += n
	m.total += n
	mm := m.values[b]
	if mm == nil {
		mm = make(map[uint64]uint64)
		m.values[b] = mm
	}
	mm[v] += n
}

func (m *mapHistogram) merge(other *mapHistogram) {
	for b, n := range other.counts {
		m.counts[b] += n
	}
	m.total += other.total
	for b, src := range other.values {
		if src == nil {
			continue
		}
		dst := m.values[b]
		if dst == nil {
			dst = make(map[uint64]uint64, len(src))
			m.values[b] = dst
		}
		for v, n := range src {
			dst[v] += n
		}
	}
}

func (m *mapHistogram) reset() {
	for i := range m.counts {
		m.counts[i] = 0
	}
	m.total = 0
	for i := range m.values {
		m.values[i] = nil
	}
}

// snapshot flattens the model into the canonical Snapshot form with the
// pre-refactor algorithm (sort each bin's map independently).
func (m *mapHistogram) snapshot() Snapshot {
	s := Snapshot{Counts: append([]uint64(nil), m.counts...), Total: m.total}
	s.Values = make([][]ValueCount, m.k)
	for b, mm := range m.values {
		if len(mm) == 0 {
			continue
		}
		vs := make([]ValueCount, 0, len(mm))
		for v, n := range mm {
			vs = append(vs, ValueCount{Value: v, Count: n})
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i].Value < vs[j].Value })
		s.Values[b] = vs
	}
	return s
}

// checkParity compares every observable of the set against one model per
// clone: canonical snapshot, total, per-bin counts, and the multi-bin
// value sweep over every bin in descending order (its reference is the
// concatenation of the model's sorted per-bin values).
func checkParity(t *testing.T, s *CloneSet, ms []*mapHistogram) {
	t.Helper()
	ss := s.Snapshots()
	for c, m := range ms {
		if want := m.snapshot(); !reflect.DeepEqual(ss[c], want) {
			t.Fatalf("clone %d snapshot parity broken:\n table %+v\n model %+v", c, ss[c], want)
		}
		if s.Total() != m.total {
			t.Fatalf("total %d, clone %d model %d", s.Total(), c, m.total)
		}
		if !slices.Equal(s.Counts(c), m.counts) {
			t.Fatalf("clone %d counts %v, model %v", c, s.Counts(c), m.counts)
		}
		var bins []int
		var want []uint64
		for b := len(m.counts) - 1; b >= 0; b-- {
			bins = append(bins, b)
			start := len(want)
			for v := range m.values[b] {
				want = append(want, v)
			}
			slices.Sort(want[start:])
		}
		if got := s.AppendValuesInBins(c, nil, bins); !slices.Equal(got, want) {
			t.Fatalf("clone %d values in bins %v, model %v", c, got, want)
		}
	}
}

// runParityProgram interprets data as a program over two clone sets of
// the given clone count and their per-clone models: adds (including
// n=0, which must still create the entry), merges between tables of
// mismatched occupancy, merges of the other set's snapshots, resets, and
// snapshot/restore round trips. It is shared by the deterministic
// differential test, FuzzValueTableParity (one clone) and
// FuzzCloneSetParity (several).
func runParityProgram(t *testing.T, data []byte, clones int) {
	const k = 16
	fns := make([]hash.Func, clones)
	for c := range fns {
		fns[c] = hash.New(42 + uint64(c))
	}
	newModels := func() []*mapHistogram {
		ms := make([]*mapHistogram, clones)
		for c, fn := range fns {
			ms[c] = newMapHistogram(k, fn)
		}
		return ms
	}
	hs := [2]*CloneSet{NewCloneSet(k, fns), NewCloneSet(k, fns)}
	ms := [2][]*mapHistogram{newModels(), newModels()}
	addN := func(tgt int, v, n uint64) {
		hs[tgt].AddN(v, n)
		for _, m := range ms[tgt] {
			m.addN(v, n)
		}
	}

	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 {
		op := next()
		tgt := int(op>>4) & 1
		switch op % 5 {
		case 0, 1: // add: small value space forces slot collisions
			v := uint64(next()) % 64
			addN(tgt, v, uint64(next())%4) // n = 0 must still create the entry
		case 2: // add a wide value (exercises high slot hashes)
			addN(tgt, uint64(next())<<56|uint64(next())<<24|uint64(next()), 1)
		case 3: // merge into tgt from the other table (occupancies differ)
			hs[tgt].Merge(hs[1-tgt])
			for c, m := range ms[tgt] {
				m.merge(ms[1-tgt][c])
			}
		case 4:
			switch next() % 4 {
			case 0:
				hs[tgt].Reset()
				for _, m := range ms[tgt] {
					m.reset()
				}
			case 1: // snapshot/restore into a fresh set
				fresh := NewCloneSet(k, fns)
				if err := restore(fresh, hs[tgt].Snapshots()); err != nil {
					t.Fatal(err)
				}
				hs[tgt] = fresh
			case 2: // restore over live state (stale entries must vanish)
				if err := restore(hs[tgt], hs[1-tgt].Snapshots()); err != nil {
					t.Fatal(err)
				}
				// Model restore = rebuild from the source model (merge
				// into a zeroed model deep-copies its maps).
				ms[tgt] = newModels()
				for c, m := range ms[tgt] {
					m.merge(ms[1-tgt][c])
				}
			case 3: // merge the other set in snapshot form
				if err := mergeSnapshot(hs[tgt], hs[1-tgt].Snapshots()); err != nil {
					t.Fatal(err)
				}
				for c, m := range ms[tgt] {
					m.merge(ms[1-tgt][c])
				}
			}
		}
	}
	checkParity(t, hs[0], ms[0])
	checkParity(t, hs[1], ms[1])
}

// TestValueTableParityVsMap drives long pseudo-random programs through
// runParityProgram, single-clone and three-clone — the map-reference
// differential test locking down the arena table and the shared-table
// clone set.
func TestValueTableParityVsMap(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for round := 0; round < 20; round++ {
		prog := make([]byte, 400)
		for i := range prog {
			prog[i] = byte(rnd())
		}
		runParityProgram(t, prog, 1)
		runParityProgram(t, prog, 3)
	}
}

// TestValueTableGrowthAndReset exercises the arena directly: growth
// across several doublings, reset recycling, and zero-count entries.
func TestValueTableGrowthAndReset(t *testing.T) {
	var vt valueTable
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		vt.add(i*2654435761, i%7) // i%7 is 0 sometimes: entry must exist
	}
	if vt.n != n {
		t.Fatalf("occupancy %d, want %d", vt.n, n)
	}
	for i := uint64(0); i < n; i++ {
		c, ok := vt.get(i * 2654435761)
		if !ok || c != i%7 {
			t.Fatalf("key %d: got (%d,%v), want (%d,true)", i, c, ok, i%7)
		}
	}
	if _, ok := vt.get(1); ok {
		t.Fatal("absent key reported present")
	}
	capBefore := len(vt.keys)
	vt.reset()
	if vt.n != 0 {
		t.Fatalf("occupancy %d after reset", vt.n)
	}
	if len(vt.keys) != capBefore {
		t.Fatalf("reset shrank the arena: %d -> %d", capBefore, len(vt.keys))
	}
	if _, ok := vt.get(2654435761); ok {
		t.Fatal("stale entry visible after reset")
	}
	// Refilling the same population must not grow the arena again.
	for i := uint64(0); i < n; i++ {
		vt.add(i*2654435761, 1)
	}
	if len(vt.keys) != capBefore {
		t.Fatalf("refill grew the arena: %d -> %d", capBefore, len(vt.keys))
	}
	// add accumulates.
	vt.add(7, 5)
	vt.add(7, 4)
	if c, _ := vt.get(7); c != 9 {
		t.Fatalf("add did not accumulate: %d", c)
	}
}

// TestValueTableShrinkAfterSpike: a cardinality spike must not pin its
// arena forever — sustained low occupancy decays capacity to the recent
// working set — while busy steady state keeps the arena untouched.
func TestValueTableShrinkAfterSpike(t *testing.T) {
	var vt valueTable
	fill := func(n uint64) {
		for i := uint64(0); i < n; i++ {
			vt.add(i*0x9e3779b97f4a7c15+1, 1)
		}
	}
	fill(100_000) // the spike
	peak := len(vt.keys)
	for r := 0; r < 2*tableShrinkAfter; r++ { // busy intervals: no decay
		vt.reset()
		fill(100_000)
		if len(vt.keys) != peak {
			t.Fatalf("busy reset %d changed capacity %d -> %d", r, peak, len(vt.keys))
		}
	}
	for r := 0; r < 4*tableShrinkAfter; r++ { // quiet intervals: decay
		vt.reset()
		fill(100)
	}
	if len(vt.keys) >= peak {
		t.Fatalf("arena did not shrink after sustained low occupancy: %d slots", len(vt.keys))
	}
	if vt.n != 100 {
		t.Fatalf("occupancy %d after shrink-era fills, want 100", vt.n)
	}
	for i := uint64(0); i < 100; i++ { // still a working table
		if c, ok := vt.get(i*0x9e3779b97f4a7c15 + 1); !ok || c != 1 {
			t.Fatalf("key %d lost after shrink: (%d,%v)", i, c, ok)
		}
	}
}

// TestAppendValuesInBinsMatchesPerBin: the one-pass multi-bin sweep is
// exactly the concatenation of each listed bin's values in the clone's
// snapshot — grouped in list order, ascending within each bin — for
// every clone and arbitrary bin lists, including bins with no values.
func TestAppendValuesInBinsMatchesPerBin(t *testing.T) {
	const k = 32
	s := NewCloneSet(k, testFns(3))
	state := uint64(7)
	for i := 0; i < 3000; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		s.AddN(state%700, state%3) // collisions, repeats, zero counts
	}
	binLists := [][]int{
		nil,
		{0},
		{31, 0, 17},
		{5, 4, 3, 2, 1, 0},
		{17, 16, 15, 30, 2, 9, 25, 11},
	}
	for c, hs := range s.Snapshots() {
		for _, bins := range binLists {
			var want []uint64
			for _, b := range bins {
				for _, vc := range hs.Values[b] {
					want = append(want, vc.Value)
				}
			}
			got := s.AppendValuesInBins(c, nil, bins)
			if !slices.Equal(got, want) {
				t.Fatalf("clone %d bins %v: sweep %v, per-bin %v", c, bins, got, want)
			}
			// Appending after existing content leaves it untouched.
			got = s.AppendValuesInBins(c, []uint64{999}, bins)
			if got[0] != 999 || !slices.Equal(got[1:], want) {
				t.Fatalf("clone %d bins %v: sweep with prefix %v, want 999+%v", c, bins, got, want)
			}
		}
	}
}

// TestValueTableReserve pins the bulk-fill contract MergeChecked relies
// on: after ensure(n), n inserts perform no further allocation (observed
// via capacity).
func TestValueTableReserve(t *testing.T) {
	var vt valueTable
	vt.ensure(1000)
	capBefore := len(vt.keys)
	if capBefore == 0 {
		t.Fatal("ensure allocated nothing")
	}
	for i := uint64(0); i < 1000; i++ {
		vt.add(i*0x9e3779b9, i)
	}
	if len(vt.keys) != capBefore {
		t.Fatalf("inserts after ensure grew the arena: %d -> %d", capBefore, len(vt.keys))
	}
}
