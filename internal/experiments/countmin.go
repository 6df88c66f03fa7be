// A count-min sketch. Footnote 1 of the paper distinguishes histogram
// cloning from sketch data structures: sketches summarize a stream
// compactly to answer point queries, whereas cloning randomly bins
// histograms without targeting summarization. The sketch here backs the
// cloning-vs-sketch ablation (DESIGN.md §5): both use random
// projections, but the sketch answers "how many flows carried value v"
// while the clones answer "which values disrupted the distribution".
// Like the histogram clones, the sketch is seeded and deterministic:
// equal seeds give identical row hashes on every platform and updates
// commute, so the same stream multiset always produces the same
// counters.

package experiments

import (
	"math"

	"anomalyx/internal/hash"
)

// countMin is a count-min sketch with one row of w counters per hash
// function.
type countMin struct {
	w    int
	rows [][]uint64
	fns  []hash.Func
}

// newCountMin creates a sketch with the given width (counters per row)
// and depth (rows, i.e. independent hash functions). Standard
// guarantees: a point estimate exceeds the true count by more than 2N/w
// with probability at most (1/2)^d.
func newCountMin(width, depth int, seed uint64) *countMin {
	if width <= 0 || depth <= 0 {
		panic("sketch: width and depth must be positive")
	}
	cm := &countMin{w: width}
	for i := 0; i < depth; i++ {
		cm.rows = append(cm.rows, make([]uint64, width))
		cm.fns = append(cm.fns, hash.New(seed^uint64(i)*0x9e3779b97f4a7c15))
	}
	return cm
}

// add records n observations of value v.
func (cm *countMin) add(v uint64, n uint64) {
	for i, fn := range cm.fns {
		cm.rows[i][fn.Bin(v, cm.w)] += n
	}
}

// estimate returns the point estimate for value v: the minimum counter
// across rows. It never underestimates the true count.
func (cm *countMin) estimate(v uint64) uint64 {
	min := uint64(math.MaxUint64)
	for i, fn := range cm.fns {
		if c := cm.rows[i][fn.Bin(v, cm.w)]; c < min {
			min = c
		}
	}
	return min
}
