package gridtest

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
)

// Oracle runs the paper's anomaly extraction (§II) over trace, one
// interval after another, and returns one report per interval with
// every field a one-partition pipeline fills. It is the grids' reference
// and is written from the paper, not from the system: one goroutine,
// maps and slices, each step done the plain way. It shares the report's
// types with the system and calls none of its code, apart from
// flow.Record.Feature (TestOracleSharesNoCode in internal/lint pins
// that). Where the paper leaves a choice open — the hash family, the
// KL smoothing, the tie between two bins — the oracle states the rule
// the reports are defined by.
//
// The steps, each in its own function:
//   - §II-D: n histogram clones per feature, each binning a value by
//     its own seeded hash (cloneHash, binOf), counted directly;
//   - §II-C: the KL distance of each clone to the previous interval
//     (kl), an alarm when its first difference exceeds α·σ̂, σ̂ = 1.4826·MAD
//     of the pooled first differences (threshold), the iterative removal
//     of the bins that explain the spike (identify), and l-of-n voting on
//     the removed bins' values (closeFeature);
//   - §II-A: the union prefilter, record by record (OracleExtract);
//   - §II-B: level-wise Apriori over the suspicious flows' seven-item
//     transactions, the maximal-set filter, the canonical set order and
//     the per-level counts (apriori).
//
// cfg's zero fields take the paper's defaults (Table III). cfg.Miner
// and cfg.Workers do not change a report and are ignored; cfg must be
// valid, as core.New would check.
func Oracle(cfg core.Config, trace [][]flow.Record) []*core.Report {
	d := cfg.Detector
	d.Bins = cmp.Or(d.Bins, 1024)
	d.Clones = cmp.Or(d.Clones, 3)
	d.Votes = cmp.Or(d.Votes, d.Clones)
	d.Alpha = cmp.Or(d.Alpha, 3)
	d.TrainIntervals = cmp.Or(d.TrainIntervals, 12)
	d.HistoryWindow = cmp.Or(d.HistoryWindow, 192) // two days of 15-minute intervals
	d.MaxRemoveBins = cmp.Or(d.MaxRemoveBins, 32)  // a negative bound means none
	feats := cfg.Features
	if len(feats) == 0 { // §II-E: srcIP, dstIP, srcPort, dstPort, packets
		feats = []flow.FeatureKind{0, 1, 2, 3, 5}
	}
	dets := make([]*oracleDetector, len(feats))
	for i, f := range feats {
		dc := d
		dc.Feature = f
		dets[i] = &oracleDetector{cfg: dc}
	}

	reps := make([]*core.Report, len(trace))
	for i, recs := range trace {
		bank := detector.BankResult{Interval: i, PerFeature: make([]detector.Result, len(dets)), Meta: detector.MetaData{}}
		for j, det := range dets {
			res := det.closeFeature(i, recs)
			bank.PerFeature[j] = res
			if !res.Alarm {
				continue
			}
			bank.Alarm = true
			for _, v := range res.Meta {
				if bank.Meta[res.Feature] == nil {
					bank.Meta[res.Feature] = map[uint64]struct{}{}
				}
				bank.Meta[res.Feature][v] = struct{}{}
			}
		}
		rep := &core.Report{TotalFlows: len(recs)}
		if bank.Alarm && len(bank.Meta) > 0 {
			rep = OracleExtract(cfg, recs, bank.Meta)
		}
		rep.Interval, rep.Detection, rep.Alarm = i, bank, bank.Alarm
		reps[i] = rep
	}
	return reps
}

// oracleDetector is one feature's detector state between intervals.
type oracleDetector struct {
	cfg    detector.Config
	prev   [][]uint64 // the previous interval's bin counts per clone; nil before one closed
	klPrev []float64  // the previous interval's KL per clone; nil before two closed
	diffs  []float64  // the pooled first differences, oldest first
}

// closeFeature closes interval i for one feature over its records.
func (o *oracleDetector) closeFeature(i int, recs []flow.Record) detector.Result {
	cfg := o.cfg
	n, k := cfg.Clones, cfg.Bins
	hs := make([]hashKeys, n)
	counts := make([][]uint64, n)
	for c := range counts {
		hs[c] = cloneHash(cfg.Seed, cfg.Feature, c)
		counts[c] = make([]uint64, k)
	}
	values := make([]uint64, len(recs))
	for j := range recs {
		values[j] = recs[j].Feature(cfg.Feature)
		for c := range counts {
			counts[c][binOf(hs[c], values[j], k)]++
		}
	}
	slices.Sort(values)
	values = slices.Compact(values) // the interval's distinct values, ascending

	res := detector.Result{Feature: cfg.Feature, Interval: i, Clones: make([]detector.CloneReport, n)}
	// The threshold needs TrainIntervals intervals of history: one first
	// difference per clone per interval.
	if len(o.diffs) >= cfg.TrainIntervals*n {
		res.Threshold, res.Trained = threshold(cfg.Alpha, o.diffs), true
	}
	votes := map[uint64]int{}
	for c := range n {
		cr := &res.Clones[c]
		if o.prev == nil {
			continue
		}
		cr.KL = kl(counts[c], o.prev[c])
		if o.klPrev == nil {
			continue
		}
		cr.Diff = cr.KL - o.klPrev[c]
		if !res.Trained || !(cr.Diff > res.Threshold) { // one-sided: only a rise alarms
			continue
		}
		cr.Alarm, res.Alarm = true, true
		cr.Identification = identify(counts[c], o.prev[c], o.klPrev[c], res.Threshold, cfg.MaxRemoveBins)
		for _, b := range cr.Identification.Bins {
			for _, v := range values {
				if binOf(hs[c], v, k) == b {
					cr.Values = append(cr.Values, v)
					votes[v]++
				}
			}
		}
	}
	if res.Alarm {
		for v, got := range votes {
			if got >= cfg.Votes {
				res.Meta = append(res.Meta, v)
			}
		}
		slices.Sort(res.Meta)
	}

	// This interval becomes the reference of the next.
	if o.prev != nil {
		kls := make([]float64, n)
		for c, cr := range res.Clones {
			kls[c] = cr.KL
			if o.klPrev != nil {
				o.diffs = append(o.diffs, cr.Diff)
			}
		}
		o.klPrev = kls
	}
	o.prev = counts
	if w := cfg.HistoryWindow * n; len(o.diffs) > w {
		o.diffs = o.diffs[len(o.diffs)-w:]
	}
	return res
}

// hashKeys are one clone's hash function: two whitening keys.
type hashKeys struct{ k0, k1 uint64 }

// cloneHash derives clone c's hash function for a feature from the
// detector's seed: the seed, the feature in the high word and c times
// the golden ratio, expanded by two steps of splitmix64.
func cloneHash(seed uint64, f flow.FeatureKind, c int) hashKeys {
	s := seed ^ uint64(f)<<32 ^ uint64(c)*0x9e3779b97f4a7c15
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	k0 := next()
	return hashKeys{k0, next()}
}

// binOf places v in one of k bins: the murmur3 finalizer over v
// whitened by k0, then k1 and one more mixing round, modulo k.
func binOf(h hashKeys, v uint64, k int) int {
	x := v ^ h.k0
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	x = x ^ x>>33 ^ h.k1
	x = (x ^ x>>29) * 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int(x % uint64(k))
}

// kl is the Kullback–Leibler distance D(p||q) = Σ p_i log2(p_i/q_i) in
// bits, each distribution smoothed by adding ½ to every bin, floored
// at 0 against rounding. Every product is rounded before it is summed,
// so no architecture fuses the two.
func kl(p, q []uint64) float64 {
	var np, nq float64
	for i := range p {
		np += float64(p[i])
		nq += float64(q[i])
	}
	np += 0.5 * float64(len(p))
	nq += 0.5 * float64(len(q))
	var d float64
	for i := range p {
		pi := (float64(p[i]) + 0.5) / np
		qi := (float64(q[i]) + 0.5) / nq
		d += float64(pi * math.Log2(pi/qi))
	}
	return max(d, 0)
}

// threshold is α·σ̂, σ̂ = 1.4826·MAD(xs) the robust estimate of the
// standard deviation of normal samples (1.4826 = 1/Φ⁻¹(¾)).
func threshold(alpha float64, xs []float64) float64 {
	median := func(xs []float64) float64 {
		s := slices.Clone(xs)
		slices.Sort(s)
		h := len(s) / 2
		if len(s)%2 == 0 {
			return (s[h-1] + s[h]) / 2
		}
		return s[h]
	}
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return alpha * (1.4826022185056018 * median(dev))
}

// identify finds the bins behind a clone's alarm: while the KL spike
// still exceeds the threshold, it sets the bin whose count differs most
// from the reference (the lowest such bin on a tie) to its reference
// count and recomputes KL, removing at most maxBins bins (all of them
// when maxBins is negative). It stops early when no bin differs.
func identify(cur, ref []uint64, klPrev, threshold float64, maxBins int) histogram.Identification {
	if maxBins < 0 || maxBins > len(cur) {
		maxBins = len(cur)
	}
	work := slices.Clone(cur)
	id := histogram.Identification{KLSeries: []float64{kl(work, ref)}}
	spike := func() bool { return id.KLSeries[len(id.KLSeries)-1]-klPrev > threshold }
	for len(id.Bins) < maxBins && spike() {
		best, most := -1, uint64(0)
		for b := range work {
			if diff := max(work[b], ref[b]) - min(work[b], ref[b]); diff > most {
				best, most = b, diff
			}
		}
		if best < 0 {
			return id
		}
		work[best] = ref[best]
		id.Bins = append(id.Bins, best)
		id.KLSeries = append(id.KLSeries, kl(work, ref))
	}
	id.Converged = !spike()
	return id
}

// OracleExtract is the extraction stage alone, as core.ExtractOffline
// runs it: the union prefilter keeps every flow carrying any value of
// meta (§II-A), and Apriori mines the kept flows at cfg's support
// (§II-B), by default 5% of them.
func OracleExtract(cfg core.Config, recs []flow.Record, meta detector.MetaData) *core.Report {
	rep := &core.Report{Alarm: true, TotalFlows: len(recs)}
	var sus []flow.Record
	for j := range recs {
		for _, f := range []flow.FeatureKind{0, 1, 2, 3, 4, 5, 6} {
			if _, ok := meta[f][recs[j].Feature(f)]; ok {
				sus = append(sus, recs[j])
				break
			}
		}
	}
	rep.SuspiciousFlows = len(sus)
	if cfg.KeepSuspicious {
		rep.Suspicious = sus
	}
	rep.CostReduction = math.Inf(1)
	if len(sus) == 0 {
		return rep
	}
	rep.MinSupport = cfg.MinSupport
	if rep.MinSupport == 0 {
		rep.MinSupport = max(1, int(cmp.Or(cfg.RelativeSupport, 0.05)*float64(len(sus))))
	}
	rep.Mining = apriori(sus, rep.MinSupport)
	rep.ItemSets = rep.Mining.Maximal
	if len(rep.ItemSets) > 0 {
		rep.CostReduction = float64(rep.TotalFlows) / float64(len(rep.ItemSets))
	}
	return rep
}

// itemKey is an item-set over the seven transaction features: the
// features it holds as a bit mask, and their values (0 elsewhere).
type itemKey struct {
	mask uint8
	vals [7]uint64
}

// without returns s less the item of feature f.
func (s itemKey) without(f int) itemKey {
	s.mask &^= 1 << f
	s.vals[f] = 0
	return s
}

// apriori is the modified Apriori of §II-B: every flow is a transaction
// of seven items, one per feature. The frequent k-item-sets are found
// level by level: the candidates of level k+1 are the frequent k-sets
// extended by a frequent item of a later feature, kept when every k-set
// they contain is frequent. The output lists every frequent set and,
// separately, the maximal ones (those no frequent set extends), each
// list by descending support, then size, then items.
func apriori(recs []flow.Record, minsup int) *mining.Result {
	txs := make([][7]uint64, len(recs))
	for j := range recs {
		for f := range 7 {
			txs[j][f] = recs[j].Feature(flow.FeatureKind(f))
		}
	}
	freq := map[itemKey]int{} // every frequent set, with its support
	items := count(txs, 1, nil, minsup)
	levels := 0
	for level := items; len(level) > 0; levels++ {
		cands := map[itemKey]bool{}
		//detlint:ok maprange -- fills two sets; no order reaches the output
		for s, n := range level {
			freq[s] = n
			//detlint:ok maprange -- fills a set
			for it := range items {
				f := bits.TrailingZeros8(it.mask)
				if s.mask>>f != 0 { // extend by later features only
					continue
				}
				c := s
				c.mask |= it.mask
				c.vals[f] = it.vals[f]
				cands[c] = true
				for g := range 7 {
					if _, ok := level[c.without(g)]; c.mask&(1<<g) != 0 && !ok {
						delete(cands, c)
					}
				}
			}
		}
		level = nil
		if len(cands) > 0 {
			level = count(txs, levels+2, cands, minsup)
		}
	}

	type entry struct {
		key itemKey
		set itemset.Set
	}
	var all []entry
	subsumed := map[itemKey]bool{}
	for s, n := range freq {
		e := entry{key: s, set: itemset.Set{Support: n}}
		for f := range 7 {
			if s.mask&(1<<f) != 0 {
				e.set.Items = append(e.set.Items, itemset.Item{Kind: flow.FeatureKind(f), Value: s.vals[f]})
				subsumed[s.without(f)] = true
			}
		}
		all = append(all, e)
	}
	slices.SortFunc(all, func(a, b entry) int {
		return cmp.Or(cmp.Compare(b.set.Support, a.set.Support), cmp.Compare(len(b.set.Items), len(a.set.Items)),
			slices.CompareFunc(a.set.Items, b.set.Items, func(x, y itemset.Item) int {
				return cmp.Or(cmp.Compare(x.Kind, y.Kind), cmp.Compare(x.Value, y.Value))
			}))
	})

	res := &mining.Result{Levels: make([]mining.LevelStat, levels), Transactions: len(recs), MinSupport: minsup}
	for i := range res.Levels {
		res.Levels[i].Level = i + 1
	}
	for _, e := range all {
		lv := &res.Levels[len(e.set.Items)-1]
		res.All = append(res.All, e.set)
		lv.Frequent++
		if !subsumed[e.key] {
			res.Maximal = append(res.Maximal, e.set)
			lv.Maximal++
		}
	}
	return res
}

// count returns the size-item-sets that at least minsup transactions
// contain, with their supports: every such set of every transaction
// when cands is nil, else only the candidates.
func count(txs [][7]uint64, size int, cands map[itemKey]bool, minsup int) map[itemKey]int {
	support := map[itemKey]int{}
	for _, tx := range txs {
		for m := range 1 << 7 {
			if bits.OnesCount(uint(m)) != size {
				continue
			}
			s := itemKey{mask: uint8(m)}
			for f := range 7 {
				if m&(1<<f) != 0 {
					s.vals[f] = tx[f]
				}
			}
			if cands == nil || cands[s] {
				support[s]++
			}
		}
	}
	//detlint:ok maprange -- drops entries; order-insensitive
	for s, n := range support {
		if n < minsup {
			delete(support, s)
		}
	}
	return support
}
