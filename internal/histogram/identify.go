package histogram

// Identification is the outcome of the iterative anomalous-bin search of
// §II-C / Fig. 5.
type Identification struct {
	// Bins are the identified anomalous bins, in removal order (largest
	// absolute count difference first).
	Bins []int
	// KLSeries records the KL distance before any removal (element 0)
	// and after each successive bin removal; it is the series Fig. 5
	// plots. len(KLSeries) == len(Bins)+1.
	KLSeries []float64
	// Converged reports whether the cleaned histogram stopped alarming
	// before maxRounds bins were removed.
	Converged bool
}

// IdentifyAnomalousBins simulates the removal of suspicious flows until
// the histogram no longer generates an alert (§II-C): in each round the
// bin with the largest absolute count difference between the current and
// reference histograms is aligned with its reference value, and the KL
// distance is recomputed. The alarm condition matches the detector's:
// a spike in the first difference of the KL time series, i.e.
//
//	KL(cleaned || ref) - klPrev > threshold
//
// where klPrev is the KL distance observed at the previous interval.
// maxRounds bounds the number of removed bins (≤ 0 means no bound).
func IdentifyAnomalousBins(cur, ref []uint64, klPrev, threshold float64, maxRounds int) Identification {
	if len(cur) != len(ref) {
		panic("histogram: IdentifyAnomalousBins over different bin counts")
	}
	k := len(cur)
	if maxRounds <= 0 || maxRounds > k {
		maxRounds = k
	}
	work := make([]uint64, k)
	copy(work, cur)

	id := Identification{KLSeries: []float64{KL(work, ref)}}
	removed := make([]bool, k)

	for len(id.Bins) < maxRounds {
		if id.KLSeries[len(id.KLSeries)-1]-klPrev <= threshold {
			id.Converged = true
			return id
		}
		best, bestDiff := -1, uint64(0)
		for i := 0; i < k; i++ {
			if removed[i] {
				continue
			}
			d := absDiff(work[i], ref[i])
			if best == -1 || d > bestDiff {
				best, bestDiff = i, d
			}
		}
		if best == -1 || bestDiff == 0 {
			return id
		}
		removed[best] = true
		work[best] = ref[best]
		id.Bins = append(id.Bins, best)
		id.KLSeries = append(id.KLSeries, KL(work, ref))
	}
	id.Converged = id.KLSeries[len(id.KLSeries)-1]-klPrev <= threshold
	return id
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
