package detector

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
)

// BankConfig parameterizes a bank of per-feature detectors — the "d
// histogram-based detectors" of §II (default: the five features of
// §II-E).
type BankConfig struct {
	// Features lists the monitored features; defaults to the paper's
	// five (srcIP, dstIP, srcPort, dstPort, packets).
	Features []flow.FeatureKind
	// Workers sizes the bank's persistent worker pool. NewBank spawns
	// the pool goroutines once — they live for the bank's lifetime, fed
	// by a task channel, and are shut down by Close — so ObserveBatch and
	// EndInterval pay no per-call spawn cost. 0 means GOMAXPROCS at
	// construction time; 1 keeps the bank fully sequential (no pool
	// goroutines at all).
	Workers int
	// Template provides the shared per-detector parameters; its Feature
	// field is overwritten per detector.
	Template Config
}

// Bank runs one detector per traffic feature and consolidates their
// alarm meta-data by union (Fig. 3). Its methods are safe for concurrent
// use: observes and interval closes are linearized by an internal mutex,
// while the batch work itself fans out over the persistent worker pool.
// Call Close when done with a pooled bank to release its goroutines; a
// closed bank must not observe further batches.
type Bank struct {
	mu        sync.Mutex
	detectors []*Detector
	sets      []*histogram.CloneSet // live's result, refilled on every call
	rows      flow.Buffer           // ObserveBatch's row→column scratch

	// tasks feeds the persistent pool; nil when workers == 1 (sequential
	// bank, no goroutines).
	tasks     chan func()
	workerWG  sync.WaitGroup
	closeOnce sync.Once
}

// minParallelBatch is the batch size below which the pool's handoff and
// wait overhead exceeds the win and ObserveBatch stays sequential.
const minParallelBatch = 256

// BankResult is the outcome of one interval across all features.
type BankResult struct {
	Interval int
	// Alarm is true when any feature detector alarmed.
	Alarm bool
	// PerFeature holds each detector's result, in Features order.
	PerFeature []Result
	// Meta is the union of the voted feature values across features —
	// the prefilter input.
	Meta MetaData
}

// NewBank builds one detector per feature and starts the worker pool.
func NewBank(cfg BankConfig) (*Bank, error) {
	feats := cfg.Features
	if len(feats) == 0 {
		feats = flow.DetectorFeatures[:]
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &Bank{}
	for _, f := range feats {
		dcfg := cfg.Template
		dcfg.Feature = f
		d, err := New(dcfg)
		if err != nil {
			return nil, err
		}
		b.detectors = append(b.detectors, d)
	}
	if workers > 1 {
		b.tasks = make(chan func(), 4*workers)
		b.workerWG.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer b.workerWG.Done()
				for fn := range b.tasks {
					fn()
				}
			}()
		}
	}
	return b, nil
}

// Detectors exposes the underlying per-feature detectors (read-only use).
func (b *Bank) Detectors() []*Detector { return b.detectors }

// Close shuts the worker pool down and waits for its goroutines to
// exit. It is idempotent. The bank must not be used after Close.
func (b *Bank) Close() {
	b.closeOnce.Do(func() {
		if b.tasks != nil {
			close(b.tasks)
		}
		b.workerWG.Wait()
	})
}

// runTasks executes task(0), ..., task(n-1) on the pool and waits for
// all of them; with a sequential bank it just runs them inline.
func (b *Bank) runTasks(n int, task func(i int)) {
	if b.tasks == nil {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		b.tasks <- func() {
			defer wg.Done()
			task(i)
		}
	}
	wg.Wait()
}

// ObserveBuffer feeds a columnar batch of flows into every feature
// detector, fanning one task per detector out over the worker pool. The
// result is identical to observing each row sequentially: value-table
// updates commute and each detector's clone set is owned by one task.
// buf is only read, and not retained past the call.
func (b *Bank) ObserveBuffer(buf *flow.Buffer) {
	if buf.Len() == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.observeLocked(buf)
}

// observeLocked is ObserveBuffer under the bank mutex.
func (b *Bank) observeLocked(buf *flow.Buffer) {
	if b.tasks == nil || buf.Len() < minParallelBatch {
		for _, d := range b.detectors {
			d.ObserveBuffer(buf)
		}
		return
	}
	b.runTasks(len(b.detectors), func(i int) { b.detectors[i].ObserveBuffer(buf) })
}

// ObserveBatch feeds a batch of flow records into every feature
// detector: an adapter that transposes recs once into a scratch column
// buffer the bank keeps, then runs ObserveBuffer's route.
func (b *Bank) ObserveBatch(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rows.Reset()
	b.rows.AppendRecords(recs)
	b.observeLocked(&b.rows)
}

// EndInterval closes the interval on every detector and merges their
// meta-data: FinishInterval over the live clone sets, under the bank
// mutex so it linearizes against ObserveBatch.
func (b *Bank) EndInterval() BankResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.FinishInterval(b.live())
}

// live returns the detectors' current-interval clone sets, index-aligned
// with Detectors(), in a slice the bank owns and refills on the next
// call. The bank mutex must be held.
func (b *Bank) live() []*histogram.CloneSet {
	b.sets = b.sets[:0]
	for _, d := range b.detectors {
		b.sets = append(b.sets, d.cur)
	}
	return b.sets
}

// LiveInterval returns the detectors' current-interval clone sets in
// place — what SwapInterval would drain, without swapping — so a
// synchronous close can run MergeDrained and FinishInterval over them
// and hold no second interval state. The caller must keep every observe
// and swap off the bank for as long as it uses the sets (core holds the
// pipeline lock across the whole close). The slice is the bank's own:
// the next LiveInterval or EndInterval refills it.
func (b *Bank) LiveInterval() []*histogram.CloneSet {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.live()
}

// mergeResults consolidates per-detector interval results in feature
// order (union across detectors, §II-A); results becomes PerFeature.
func mergeResults(results []Result) BankResult {
	res := BankResult{PerFeature: results, Meta: NewMetaData()}
	for _, r := range results {
		res.Interval = r.Interval
		if r.Alarm {
			res.Alarm = true
			for _, v := range r.Meta {
				res.Meta.Add(r.Feature, v)
			}
		}
	}
	return res
}

// SwapInterval exchanges every detector's current-interval clone set for
// the corresponding entry of repl — a reset set previously returned by
// SwapInterval, or nil to allocate fresh sets — and returns the drained
// sets, index-aligned with Detectors(). repl's outer slice is reused as
// the return container, so a caller cycling sets through a freelist
// allocates nothing. The swap takes the bank mutex and is therefore
// atomic with respect to ObserveBatch; the expensive close math runs
// later via FinishInterval.
func (b *Bank) SwapInterval(repl []*histogram.CloneSet) []*histogram.CloneSet {
	b.mu.Lock()
	defer b.mu.Unlock()
	if repl == nil {
		repl = make([]*histogram.CloneSet, len(b.detectors))
	}
	for i, d := range b.detectors {
		repl[i] = d.SwapInterval(repl[i])
	}
	return repl
}

// FinishInterval closes the interval accumulated in cur — clone sets
// drained by SwapInterval, or lent in place by LiveInterval — on every
// detector and merges their meta-data (union across detectors, §II-A).
// The per-detector close runs on the worker pool; results are merged in
// feature order, so the report is identical to the sequential path. It
// deliberately does NOT take the bank mutex: cur is private to the
// caller and each detector's interval history is touched only by finish
// calls, so detection here may overlap ObserveBatch on swapped-in sets.
// The caller must serialize FinishInterval calls in swap order — the KL
// scheme compares each interval against the previous one. cur's sets
// are reset in place for recycling.
func (b *Bank) FinishInterval(cur []*histogram.CloneSet) BankResult {
	results := make([]Result, len(b.detectors))
	b.runTasks(len(b.detectors), func(i int) { results[i] = b.detectors[i].FinishInterval(cur[i]) })
	return mergeResults(results)
}

// mergeable reports whether other's clone sets may be folded into b's:
// distinct banks monitoring the same features with the same detector
// parameters (see Detector.mergeable). AbsorbGroup runs this one check
// on every sibling before touching any histogram. It reads only
// immutable configuration and takes no lock.
func (b *Bank) mergeable(other *Bank) error {
	if other == b {
		return fmt.Errorf("detector: bank cannot absorb itself")
	}
	if len(b.detectors) != len(other.detectors) {
		return fmt.Errorf("detector: absorb across banks with %d and %d detectors",
			len(b.detectors), len(other.detectors))
	}
	for i, d := range b.detectors {
		if err := d.mergeable(other.detectors[i]); err != nil {
			return err
		}
	}
	return nil
}

// MergeDrained folds sibling clone sets into dst in sibling order and
// resets the siblings, fanning one task per detector across the worker
// pool — detector columns are independent, so the parallel merge is
// byte-identical to folding each sibling in turn. This is the
// cross-partition merge of the interval close: one value-table fold per
// feature, whatever the clone count, with the bins derived once, on the
// merged table, when detection reads them. Only the open interval moves:
// no detection history is consulted or modified. Like FinishInterval it
// takes no bank mutex: every set involved must be private to the caller
// — drained by SwapInterval, or live with observes excluded — and come
// from banks built from one configuration (core's partitions are, by
// construction; AbsorbGroup checks).
func (b *Bank) MergeDrained(dst []*histogram.CloneSet, siblings [][]*histogram.CloneSet) {
	if len(siblings) == 0 {
		return
	}
	b.runTasks(len(dst), func(i int) {
		for _, sib := range siblings {
			dst[i].Merge(sib[i])
			sib[i].Reset()
		}
	})
}

// AbsorbGroup folds every sibling bank's in-progress interval into b in
// sibling order and leaves the siblings empty, ready to accumulate the
// next interval: MergeDrained over the live clone sets, with every bank
// locked. Every sibling is validated before any histogram moves, so a
// rejected group leaves every bank as it was.
func (b *Bank) AbsorbGroup(others []*Bank) error {
	// Validate before locking: absorbing b itself, or one sibling
	// twice, would self-deadlock.
	for i, o := range others {
		if err := b.mergeable(o); err != nil {
			return err
		}
		if slices.Contains(others[:i], o) {
			return fmt.Errorf("detector: sibling bank %d repeats an earlier sibling", i)
		}
	}
	// Lock in caller order: the fold goes toward a single primary bank
	// (partition merges), so no cycle can form.
	b.mu.Lock()
	defer b.mu.Unlock()
	siblings := make([][]*histogram.CloneSet, len(others))
	for i, o := range others {
		o.mu.Lock()
		defer o.mu.Unlock()
		siblings[i] = o.live()
	}
	b.MergeDrained(b.live(), siblings)
	return nil
}
