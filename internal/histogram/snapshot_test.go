package histogram

import (
	"reflect"
	"testing"
)

// restore validates ss, then resets s and merges ss in — so a rejected
// snapshot changes nothing.
func restore(s *CloneSet, ss []Snapshot) error {
	if err := s.CheckSnapshots(ss); err != nil {
		return err
	}
	s.Reset()
	s.MergeChecked(ss)
	return nil
}

// mergeSnapshot is the collector's absorb of one set: validate, then
// merge additively.
func mergeSnapshot(s *CloneSet, ss []Snapshot) error {
	if err := s.CheckSnapshots(ss); err != nil {
		return err
	}
	s.MergeChecked(ss)
	return nil
}

// TestSnapshotRestoreRoundTrip: a restored set is indistinguishable from
// the original — every clone's counts and values, the total, and
// subsequent behaviour all match — and the snapshots share no memory
// with either.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	fns := testFns(3)
	s := NewCloneSet(16, fns)
	for v := uint64(0); v < 300; v++ {
		s.AddN(v%37, v%5+1)
	}
	ss := s.Snapshots()

	// The snapshots must be private copies: changing the set must not
	// change them.
	before := append([]uint64(nil), ss[1].Counts...)
	s.Add(1)
	if !reflect.DeepEqual(ss[1].Counts, before) {
		t.Fatal("snapshot counts alias the live set")
	}
	if err := restore(s, ss); err != nil { // undo the extra Add
		t.Fatal(err)
	}

	r := NewCloneSet(16, fns)
	if err := restore(r, ss); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshots(), ss) {
		t.Fatal("restored set re-snapshots differently")
	}
	if r.Total() != s.Total() {
		t.Fatalf("restored total %d != %d", r.Total(), s.Total())
	}
	for c := range fns {
		if !reflect.DeepEqual(r.Counts(c), s.Counts(c)) {
			t.Fatalf("clone %d: restored counts differ", c)
		}
		for b := 0; b < 16; b++ {
			if got, want := r.AppendValuesInBins(c, nil, []int{b}), s.AppendValuesInBins(c, nil, []int{b}); !reflect.DeepEqual(got, want) {
				t.Fatalf("clone %d bin %d: restored values %v != %v", c, b, got, want)
			}
		}
	}
	// Subsequent adds agree too.
	s.AddN(99, 3)
	r.AddN(99, 3)
	if !reflect.DeepEqual(r.Snapshots(), s.Snapshots()) {
		t.Fatal("sets diverge after post-restore adds")
	}
}

// TestSnapshotCanonicalOrder: tracked values appear sorted ascending
// per bin, regardless of insertion order.
func TestSnapshotCanonicalOrder(t *testing.T) {
	a := NewCloneSet(4, testFns(2))
	b := NewCloneSet(4, testFns(2))
	vals := []uint64{9, 2, 700, 14, 3, 3, 9}
	for _, v := range vals {
		a.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Add(vals[i])
	}
	sa, sb := a.Snapshots(), b.Snapshots()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("equal observation multisets snapshot differently")
	}
	for c, hs := range sa {
		for bin, vs := range hs.Values {
			for i := 1; i < len(vs); i++ {
				if vs[i-1].Value >= vs[i].Value {
					t.Fatalf("clone %d bin %d values not strictly ascending: %v", c, bin, vs)
				}
			}
		}
	}
}

// TestRestoreSnapshotRejectsShape: bin-count, clone-count and
// tracking-mode mismatches, and clones that cannot share one value
// table, error instead of silently corrupting state — and leave the
// target exactly as it was.
func TestRestoreSnapshotRejectsShape(t *testing.T) {
	fns := testFns(2)
	src := NewCloneSet(8, fns)
	for v := uint64(0); v < 40; v++ {
		src.Add(v)
	}
	ss := src.Snapshots()
	untracked := New(8, fns[0], false)
	untracked.Add(5)

	mutate := func(f func(ss []Snapshot) []Snapshot) []Snapshot {
		cp := make([]Snapshot, len(ss))
		for c, hs := range ss {
			cp[c] = Snapshot{Counts: append([]uint64(nil), hs.Counts...), Total: hs.Total, Values: append([][]ValueCount(nil), hs.Values...)}
		}
		return f(cp)
	}
	cases := map[string]struct {
		k  int
		ss []Snapshot
	}{
		"bin count":   {16, ss},
		"clone count": {8, ss[:1]},
		"untracked":   {8, []Snapshot{untracked.Snapshot(), untracked.Snapshot()}},
		"truncated value bins": {8, mutate(func(ss []Snapshot) []Snapshot {
			ss[1].Values = ss[1].Values[:4]
			return ss
		})},
		"totals differ": {8, mutate(func(ss []Snapshot) []Snapshot {
			ss[1].Total++
			return ss
		})},
		"counts do not sum to total": {8, mutate(func(ss []Snapshot) []Snapshot {
			ss[0].Counts[0]++
			return ss
		})},
		"value counts do not sum to total": {8, mutate(func(ss []Snapshot) []Snapshot {
			for b, vs := range ss[0].Values {
				if len(vs) > 0 {
					vs = append([]ValueCount(nil), vs...)
					vs[0].Count++
					ss[0].Values[b] = vs
					return ss
				}
			}
			return ss
		})},
		"value entries differ": {8, mutate(func(ss []Snapshot) []Snapshot {
			for b, vs := range ss[1].Values {
				if len(vs) > 0 {
					ss[1].Values[b] = append(vs[:len(vs):len(vs)], ValueCount{Value: 1 << 40})
					return ss
				}
			}
			return ss
		})},
	}
	for name, tc := range cases {
		dst := NewCloneSet(tc.k, fns)
		dst.Add(77)
		want := dst.Snapshots()
		if err := dst.CheckSnapshots(tc.ss); err == nil {
			t.Errorf("%s: CheckSnapshots accepted", name)
		}
		if err := restore(dst, tc.ss); err == nil {
			t.Errorf("%s: restore accepted", name)
		}
		if err := mergeSnapshot(dst, tc.ss); err == nil {
			t.Errorf("%s: merge accepted", name)
		}
		if !reflect.DeepEqual(dst.Snapshots(), want) {
			t.Errorf("%s: rejected snapshot changed the set", name)
		}
	}
}

// TestRestoreSnapshotOverwrites: restoring discards whatever the
// current interval held, including stale table entries.
func TestRestoreSnapshotOverwrites(t *testing.T) {
	fns := testFns(3)
	s := NewCloneSet(8, fns)
	for v := uint64(0); v < 64; v++ {
		s.Add(v)
	}
	fresh := NewCloneSet(8, fns)
	fresh.Add(1)
	if err := restore(s, fresh.Snapshots()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Snapshots(), fresh.Snapshots()) {
		t.Fatal("restore left stale state behind")
	}
}
