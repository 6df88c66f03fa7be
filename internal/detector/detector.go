package detector

import (
	"fmt"
	"math"
	"slices"

	"anomalyx/internal/flow"
	"anomalyx/internal/hash"
	"anomalyx/internal/histogram"
	"anomalyx/internal/stats"
)

// Config parameterizes one per-feature detector (Table III).
type Config struct {
	// Feature is the monitored traffic feature.
	Feature flow.FeatureKind
	// Bins is k = 2^m, the number of histogram bins (default 1024).
	Bins int
	// Clones is n, the number of histogram clones with independent hash
	// functions (default 3).
	Clones int
	// Votes is l: a feature value enters the meta-data when at least l
	// clones selected it (l=1 is the union of clones, l=n the
	// intersection; default 3).
	Votes int
	// Alpha is the one-sided alarm threshold multiplier on the robust
	// standard deviation of the KL first difference (default 3).
	Alpha float64
	// TrainIntervals is the minimum number of first-difference samples
	// required before the detector may raise alarms (default 12; at most
	// HistoryWindow).
	TrainIntervals int
	// HistoryWindow caps the number of first-difference samples kept for
	// the MAD estimate (default 192 = two days of 15-minute intervals).
	HistoryWindow int
	// MaxRemoveBins bounds the iterative anomalous-bin identification
	// (default 32; ≤0 means unbounded).
	MaxRemoveBins int
	// Seed derives the clones' independent hash functions.
	Seed uint64
}

// WithDefaults returns c with unset fields filled with the paper's
// defaults — the exact normalization New applies before construction.
// Exported so other packages can compare or digest *effective*
// configurations (the wire handshake hashes the defaulted config, so an
// explicit Bins: 1024 and an implicit zero digest identically).
func (c Config) WithDefaults() Config { return c.withDefaults() }

// Defaults fills unset fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.Bins == 0 {
		c.Bins = 1024
	}
	if c.Clones == 0 {
		c.Clones = 3
	}
	if c.Votes == 0 {
		c.Votes = c.Clones
	}
	if c.Alpha == 0 {
		c.Alpha = 3
	}
	if c.TrainIntervals == 0 {
		c.TrainIntervals = 12
	}
	if c.HistoryWindow == 0 {
		c.HistoryWindow = 192
	}
	if c.MaxRemoveBins == 0 {
		c.MaxRemoveBins = 32
	}
	return c
}

func (c Config) validate() error {
	if !c.Feature.Valid() {
		return fmt.Errorf("detector: invalid feature %d", c.Feature)
	}
	if c.Bins < 2 {
		return fmt.Errorf("detector: need at least 2 bins, got %d", c.Bins)
	}
	if c.Clones < 1 {
		return fmt.Errorf("detector: need at least 1 clone, got %d", c.Clones)
	}
	if c.Votes < 1 || c.Votes > c.Clones {
		return fmt.Errorf("detector: votes l=%d out of range [1,%d]", c.Votes, c.Clones)
	}
	// The window must hold the training samples, or Threshold never
	// reports a trained detector and no alarm is ever raised.
	if c.TrainIntervals < 0 || c.HistoryWindow < 0 || c.TrainIntervals > c.HistoryWindow {
		return fmt.Errorf("detector: training intervals %d out of range [0,%d] (the history window)",
			c.TrainIntervals, c.HistoryWindow)
	}
	return nil
}

// CloneReport is the per-clone outcome of one interval.
type CloneReport struct {
	KL             float64                  // KL(current || previous interval)
	Diff           float64                  // first difference of the KL series
	Alarm          bool                     // Diff exceeded the threshold
	Identification histogram.Identification // set only when Alarm
	Values         []uint64                 // feature values in the identified anomalous bins
}

// Result is the outcome of one interval for one feature detector.
type Result struct {
	Feature   flow.FeatureKind
	Interval  int
	Alarm     bool    // at least one clone alarmed
	Threshold float64 // alpha * robust sigma, NaN-free; 0 while training
	Trained   bool    // enough history for a threshold
	Clones    []CloneReport
	// Meta holds the voted feature values (≥ Votes clones selected
	// them). Empty unless Alarm.
	Meta []uint64
}

// Detector monitors one traffic feature with n histogram clones and the
// previous-interval KL scheme of §II-C. It is not safe for concurrent
// use.
type Detector struct {
	cfg Config

	cur  *histogram.CloneSet // current-interval clones: one value table, n hashes
	prev [][]uint64          // previous-interval counts per clone

	klPrev   []float64 // previous KL per clone (for the first difference)
	havePrev bool      // prev holds a complete interval
	haveKL   bool      // klPrev holds a valid KL (needs two intervals)

	diffs    []float64 // history of first differences (all clones pooled), oldest first
	sorted   []float64 // diffs in ascending order (slices.Sort's): Threshold reads it
	interval int

	// binValues is the scratch buffer for the anomalous-bin → value
	// mapping, reused across clones and intervals so the bin sweep
	// (CloneSet.AppendValuesInBins) allocates only when an alarm needs
	// more room than any previous one. Safe because the values are
	// copied into the report before the next clone overwrites them.
	binValues []uint64
}

// New builds a detector, applying defaults to unset Config fields.
func New(cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg}
	d.cur = newCloneSet(cfg)
	for c := 0; c < cfg.Clones; c++ {
		d.prev = append(d.prev, make([]uint64, cfg.Bins))
	}
	d.klPrev = make([]float64, cfg.Clones)
	return d, nil
}

// newCloneSet builds the value-tracked clone set for cfg. The hash
// functions are derived from (Seed, Feature, clone) only, so two sets
// built from the same effective Config are interchangeable — the
// property the pipelined close's recycling freelist relies on.
func newCloneSet(cfg Config) *histogram.CloneSet {
	fns := make([]hash.Func, cfg.Clones)
	for c := range fns {
		fns[c] = hash.New(cfg.Seed ^ uint64(cfg.Feature)<<32 ^ uint64(c)*0x9e3779b97f4a7c15)
	}
	return histogram.NewCloneSet(cfg.Bins, fns)
}

// Config returns the detector's effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// ObserveBatch feeds a batch of flow records into the current interval:
// one value-table insert per record, whatever the clone count. Batching
// does not change the result — the inserts commute — and a batch is the
// unit of work the parallel bank schedules on its worker pool.
func (d *Detector) ObserveBatch(recs []flow.Record) {
	set, k := d.cur, d.cfg.Feature
	for i := range recs {
		set.Add(recs[i].Feature(k))
	}
}

// mergeable reports whether other's clone sets may be folded into d's:
// the two must be distinct detectors sharing Feature, Clones, Bins and
// Seed (equal hash functions), or the per-bin sums of a merge mean
// nothing. It reads only the immutable configuration, so it needs no
// lock.
func (d *Detector) mergeable(other *Detector) error {
	if other == d {
		return fmt.Errorf("detector: cannot absorb self")
	}
	if d.cfg.Feature != other.cfg.Feature {
		return fmt.Errorf("detector: absorb across features %v and %v", d.cfg.Feature, other.cfg.Feature)
	}
	if d.cfg.Clones != other.cfg.Clones {
		return fmt.Errorf("detector: absorb across clone counts %d and %d", d.cfg.Clones, other.cfg.Clones)
	}
	if d.cfg.Bins != other.cfg.Bins || d.cfg.Seed != other.cfg.Seed {
		return fmt.Errorf("detector: absorb across bins/seed (%d,%d) and (%d,%d)",
			d.cfg.Bins, d.cfg.Seed, other.cfg.Bins, other.cfg.Seed)
	}
	return nil
}

// Threshold returns the current alarm threshold (alpha * robust sigma of
// the pooled first-difference history) and whether enough history exists.
// The history pools one sample per clone per interval, so training
// requires TrainIntervals full intervals.
func (d *Detector) Threshold() (float64, bool) {
	if len(d.diffs) < d.cfg.TrainIntervals*d.cfg.Clones {
		return 0, false
	}
	// stats.RobustSigma(d.diffs) is MADScale * stats.MAD(d.diffs); keep
	// that product's operands and order so the threshold is bit-identical.
	return d.cfg.Alpha * (stats.MADScale * d.mad()), true
}

// mad returns stats.MAD(d.diffs), read off the sorted copy instead of
// sorting two fresh copies: the median is the middle of d.sorted, and
// the deviations |x - median| of the samples below the median ascend
// walking down from it, those of the samples at or above it walking up,
// so merging the two runs yields the sorted deviations, of which the
// median is the MAD. Every value is computed by the same expression as
// in stats, so the result is bit-identical. A window holding a NaN or an
// infinity, which only a restored snapshot can carry, takes stats.MAD
// itself: the merge's ordering argument needs finite samples.
func (d *Detector) mad() float64 {
	s := d.sorted
	n := len(s)
	if n == 0 || math.IsNaN(s[0]) || math.IsInf(s[0], -1) || math.IsInf(s[n-1], 1) {
		return stats.MAD(d.diffs)
	}
	h := n / 2
	m := s[h]
	if n%2 == 0 {
		m = (s[h-1] + s[h]) / 2
	}
	j, _ := slices.BinarySearch(s, m) // s[:j] < m <= s[j:]
	i := j - 1
	var prev, cur float64 // the last two deviations taken, in ascending order
	for range h + 1 {
		prev = cur
		if j == n || i >= 0 && math.Abs(s[i]-m) <= math.Abs(s[j]-m) {
			cur = math.Abs(s[i] - m)
			i--
		} else {
			cur = math.Abs(s[j] - m)
			j++
		}
	}
	if n%2 == 1 {
		return cur
	}
	return (prev + cur) / 2
}

// pushDiff appends x to the first-difference history and inserts it
// into the sorted copy.
func (d *Detector) pushDiff(x float64) {
	d.diffs = append(d.diffs, x)
	i, _ := slices.BinarySearch(d.sorted, x)
	d.sorted = slices.Insert(d.sorted, i, x)
}

// trimDiffs drops the oldest samples until at most w remain, from the
// history (copied down in place, so its backing array is kept) and from
// the sorted copy (the sample with the same bits, among those comparing
// equal to it).
func (d *Detector) trimDiffs(w int) {
	drop := len(d.diffs) - w
	if drop <= 0 {
		return
	}
	for _, x := range d.diffs[:drop] {
		i, _ := slices.BinarySearch(d.sorted, x)
		for math.Float64bits(d.sorted[i]) != math.Float64bits(x) {
			i++
		}
		d.sorted = slices.Delete(d.sorted, i, i+1)
	}
	d.diffs = d.diffs[:copy(d.diffs, d.diffs[drop:])]
}

// EndInterval closes the current interval: computes per-clone KL
// distances and first differences, raises an alarm if any clone's
// difference exceeds the threshold, identifies anomalous bins, votes on
// feature values, and rotates the histograms. The previous interval
// becomes the new reference (§II-C: no training or recalibration).
func (d *Detector) EndInterval() Result { return d.FinishInterval(d.cur) }

// SwapInterval exchanges the current-interval clone set for repl — a
// reset set previously returned by SwapInterval (or nil, which allocates
// a fresh set) — and returns the set that was accumulating. This is the
// cheap synchronous half of a pipelined close: the caller drains the
// open interval here and runs the expensive detection math later via
// FinishInterval while new records flow into repl. The returned set must
// be passed to exactly one FinishInterval call, and FinishInterval calls
// must happen in swap order — the KL scheme is sequential (each interval
// is compared against the previous one).
func (d *Detector) SwapInterval(repl *histogram.CloneSet) *histogram.CloneSet {
	if repl == nil {
		repl = newCloneSet(d.cfg)
	}
	cur := d.cur
	d.cur = repl
	return cur
}

// FinishInterval runs the interval close against cur, a clone set drained
// by SwapInterval (EndInterval passes the live set directly). It derives
// the clones' bin counts from cur's value table, computes the per-clone
// distances against the detector's history, rotates that history, and
// resets cur in place so the caller can recycle it. Calls must be
// sequential and in swap order; FinishInterval never touches d.cur, so
// it may run concurrently with Observe/ObserveBatch on the swapped-in
// set.
func (d *Detector) FinishInterval(cur *histogram.CloneSet) Result {
	res := Result{
		Feature:  d.cfg.Feature,
		Interval: d.interval,
		Clones:   make([]CloneReport, d.cfg.Clones),
	}
	threshold, trained := d.Threshold()
	res.Threshold = threshold
	res.Trained = trained

	var votes map[uint64]int // allocated by the first alarming clone
	for c := range res.Clones {
		rep := &res.Clones[c]
		counts := cur.Counts(c)
		if d.havePrev {
			rep.KL = histogram.KL(counts, d.prev[c])
			if d.haveKL {
				rep.Diff = rep.KL - d.klPrev[c]
				// One-sided test: only positive spikes alarm (§II-C).
				if trained && rep.Diff > threshold {
					rep.Alarm = true
					res.Alarm = true
					rep.Identification = histogram.IdentifyAnomalousBins(
						counts, d.prev[c], d.klPrev[c], threshold, d.cfg.MaxRemoveBins)
					// One table sweep for all identified bins (grouped
					// in identification order, values ascending per
					// bin — the same concatenation the per-bin loop
					// produced). A value lands in exactly one bin per
					// clone, so each flagged value votes once here.
					d.binValues = cur.AppendValuesInBins(c, d.binValues[:0], rep.Identification.Bins)
					rep.Values = append(rep.Values, d.binValues...)
					if votes == nil {
						votes = make(map[uint64]int)
					}
					for _, v := range d.binValues {
						votes[v]++
					}
				}
			}
		}
	}

	if res.Alarm {
		for v, n := range votes {
			if n >= d.cfg.Votes {
				res.Meta = append(res.Meta, v)
			}
		}
		// Sort so results are deterministic regardless of map iteration
		// order — the parallel bank's byte-identical-merge contract.
		slices.Sort(res.Meta)
	}

	d.rotate(cur, res)
	return res
}

// rotate archives the interval accumulated in cur and prepares the next
// one, resetting cur in place.
func (d *Detector) rotate(cur *histogram.CloneSet, res Result) {
	for c, prev := range d.prev {
		copy(prev, cur.Counts(c))
		if d.havePrev {
			if d.haveKL {
				d.pushDiff(res.Clones[c].Diff)
			}
			d.klPrev[c] = res.Clones[c].KL
		}
	}
	cur.Reset()
	if d.havePrev {
		d.haveKL = true
	}
	d.havePrev = true
	d.trimDiffs(d.cfg.HistoryWindow * d.cfg.Clones)
	d.interval++
}
