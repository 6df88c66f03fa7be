// Exact offline hierarchical heavy-hitter (HHH) detection over IPv4
// prefixes: the related-work comparator of the paper's §IV ([7], [36])
// and its §III-D suggestion for capturing anomalies that affect whole
// network ranges (outages, routing shifts) rather than single feature
// values.
//
// A prefix is a hierarchical heavy hitter when its traffic count,
// *discounted by the counts of its descendant HHHs*, still reaches the
// threshold phi*N. The discounting is what separates HHH from plain
// per-prefix heavy hitters: a /16 only surfaces if its traffic is not
// already explained by heavier /24s inside it.
//
// Results are deterministic: detection is exact (no sketching), counts
// depend only on the flow multiset, and each level's HHH list is sorted
// by descending discounted count with the prefix address as tiebreak,
// so the same input yields the same output in the same order every run.

package experiments

import (
	"fmt"
	"sort"

	"anomalyx/internal/flow"
)

// Prefix is an IPv4 prefix.
type Prefix struct {
	Addr uint32 // masked address
	Len  int    // prefix length in bits
}

// String renders the prefix in CIDR form.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", flow.U32ToAddr(p.Addr), p.Len)
}

// contains reports whether p covers q (q at least as specific).
func (p Prefix) contains(q Prefix) bool {
	if q.Len < p.Len {
		return false
	}
	return q.Addr&mask(p.Len) == p.Addr
}

// HeavyHitter is one detected hierarchical heavy hitter.
type HeavyHitter struct {
	Prefix Prefix
	// Count is the prefix's total flow count; Discounted the count after
	// subtracting descendant HHHs (the value compared to the threshold).
	Count      uint64
	Discounted uint64
}

// hhhLevels is the default prefix-length hierarchy (byte boundaries, the
// granularity of [36]).
var hhhLevels = []int{32, 24, 16, 8, 0}

// hhhDetector finds exact HHHs over one interval of addresses.
type hhhDetector struct {
	levels []int
	counts map[Prefix]uint64
	total  uint64
}

// newHHH creates a detector over the given prefix-length hierarchy (most
// specific first); nil selects byte boundaries.
func newHHH(levels []int) *hhhDetector {
	if levels == nil {
		levels = hhhLevels
	}
	cp := make([]int, len(levels))
	copy(cp, levels)
	sort.Sort(sort.Reverse(sort.IntSlice(cp)))
	return &hhhDetector{levels: cp, counts: make(map[Prefix]uint64)}
}

// add records n flows for address a.
func (d *hhhDetector) add(a uint32, n uint64) {
	for _, l := range d.levels {
		d.counts[Prefix{Addr: a & mask(l), Len: l}] += n
	}
	d.total += n
}

// addFlows records the chosen address feature of each flow.
func (d *hhhDetector) addFlows(recs []flow.Record, kind flow.FeatureKind) error {
	if kind != flow.SrcIP && kind != flow.DstIP {
		return fmt.Errorf("hhh: feature %v is not an address", kind)
	}
	for i := range recs {
		d.add(uint32(recs[i].Feature(kind)), 1)
	}
	return nil
}

// detect returns the hierarchical heavy hitters at threshold phi (a
// fraction of the total count), most specific levels first, each level
// sorted by descending discounted count.
func (d *hhhDetector) detect(phi float64) []HeavyHitter {
	if phi <= 0 || phi > 1 {
		panic("hhh: phi must be in (0, 1]")
	}
	threshold := uint64(float64(phi * float64(d.total)))
	if threshold == 0 {
		threshold = 1
	}

	var result []HeavyHitter
	// hhhAt[i] lists the HHHs found at level index i (levels are most
	// specific first).
	hhhAt := make([][]HeavyHitter, len(d.levels))

	for li, l := range d.levels {
		var found []HeavyHitter
		for p, c := range d.counts {
			if p.Len != l {
				continue
			}
			disc := c
			// Subtract descendant HHHs from more specific levels.
			for mi := 0; mi < li; mi++ {
				for _, h := range hhhAt[mi] {
					if p.contains(h.Prefix) && isDirectHHHChild(hhhAt, mi, li, p, h.Prefix) {
						if h.Count > disc {
							disc = 0
						} else {
							disc -= h.Count
						}
					}
				}
			}
			if disc >= threshold {
				found = append(found, HeavyHitter{Prefix: p, Count: c, Discounted: disc})
			}
		}
		sort.Slice(found, func(i, j int) bool {
			if found[i].Discounted != found[j].Discounted {
				return found[i].Discounted > found[j].Discounted
			}
			return found[i].Prefix.Addr < found[j].Prefix.Addr
		})
		hhhAt[li] = found
		result = append(result, found...)
	}
	return result
}

// isDirectHHHChild reports whether child (an HHH at level index childLi)
// should be discounted from parent at level index parentLi: it must not
// be covered by an intermediate HHH that is itself discounted from the
// parent (avoiding double subtraction).
func isDirectHHHChild(hhhAt [][]HeavyHitter, childLi, parentLi int, parent, child Prefix) bool {
	for mi := childLi + 1; mi < parentLi; mi++ {
		for _, h := range hhhAt[mi] {
			if parent.contains(h.Prefix) && h.Prefix.contains(child) {
				return false // already folded into the intermediate HHH
			}
		}
	}
	return true
}

func mask(l int) uint32 {
	if l <= 0 {
		return 0
	}
	if l >= 32 {
		return 0xffffffff
	}
	return ^uint32(0) << (32 - l)
}
