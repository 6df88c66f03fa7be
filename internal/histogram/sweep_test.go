package histogram

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// TestSweepMatchesBinReference holds the derive sweep (bin) and
// AppendValuesInBins to a per-value hash.Func.Bin reference wherever
// they take a different path: 1, 2, 3 (the fused pass) and 5 clones,
// over k = 2 and 1024 (the masked digest) and k = 1000 (Bin itself).
// The set is filled through AddColumn's typed columns and Add, so the
// column insert is held to the per-value one too.
func TestSweepMatchesBinReference(t *testing.T) {
	vals := benchValues(5000, 3000)
	for _, clones := range []int{1, 2, 3, 5} {
		for _, k := range []int{2, 1000, 1024} {
			t.Run(fmt.Sprintf("clones=%d/k=%d", clones, k), func(t *testing.T) {
				fns := testFns(clones)
				s := NewCloneSet(k, fns)
				want := map[uint64]uint64{} // value -> count
				col16 := make([]uint16, 0, len(vals))
				for i, v := range vals {
					want[v]++
					switch i % 3 {
					case 0:
						s.Add(v)
					default:
						col16 = append(col16, uint16(v))
					}
				}
				AddColumn(s, col16)
				distinct := slices.Sorted(maps.Keys(want))
				if s.Total() != uint64(len(vals)) {
					t.Fatalf("Total = %d, want %d", s.Total(), len(vals))
				}
				for c, fn := range fns {
					ref := make([]uint64, k)
					for v, n := range want {
						ref[fn.Bin(v, k)] += n
					}
					if got := s.Counts(c); !slices.Equal(got, ref) {
						t.Fatalf("clone %d: bin counts differ from the per-value Bin reference", c)
					}
					// The listed bins in a scrambled order, some empty.
					var bins []int
					for b := k - 1; b >= 0; b -= 1 + b%7 {
						bins = append(bins, b)
					}
					var refVals []uint64
					for _, b := range bins {
						var in []uint64
						for _, v := range distinct {
							if fn.Bin(v, k) == b {
								in = append(in, v)
							}
						}
						refVals = append(refVals, in...)
					}
					dst := []uint64{42}
					got := s.AppendValuesInBins(c, dst, bins)
					if got[0] != 42 || !slices.Equal(got[1:], refVals) {
						t.Fatalf("clone %d: AppendValuesInBins differs from the per-value Bin reference", c)
					}
				}
			})
		}
	}
}
