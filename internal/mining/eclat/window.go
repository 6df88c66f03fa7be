package eclat

import (
	"sort"

	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
)

// Window is a sliding-window frequent item-set miner: it keeps the most
// recent capacity transactions in vertical form and mines the window on
// demand — the streaming extension the paper lists as related/future work
// (Li & Deng's sliding-window Eclat [21], §IV/§V). Push is O(items per
// transaction) amortized; Mine runs Eclat over the current window without
// rescanning the transaction history.
type Window struct {
	capacity int
	seq      int64 // next transaction id
	lists    map[itemset.Item][]int64
	live     int   // transactions currently inside the window
	stale    int64 // tids dropped from the window so far (= seq - live)
}

// NewWindow creates a sliding window over the most recent capacity
// transactions. It panics if capacity is not positive.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic("eclat: window capacity must be positive")
	}
	return &Window{capacity: capacity, lists: make(map[itemset.Item][]int64)}
}

// Len returns the number of transactions currently in the window.
func (w *Window) Len() int { return w.live }

// Push appends one transaction, evicting the oldest when full.
func (w *Window) Push(tx itemset.Transaction) {
	tid := w.seq
	w.seq++
	for _, it := range tx.Items() {
		w.lists[it] = append(w.lists[it], tid)
	}
	if w.live < w.capacity {
		w.live++
	} else {
		w.stale++
	}
	// Compact lazily: when more than half of a hot list would be stale
	// the next Mine pays for it; global compaction keeps memory bounded.
	if w.stale > int64(w.capacity) {
		w.compact()
	}
}

// compact drops evicted tids from every list.
func (w *Window) compact() {
	min := w.minTid()
	//detlint:ok maprange -- trims each tid-list independently; per-key mutation is order-insensitive
	for it, tids := range w.lists {
		i := lowerBound(tids, min)
		if i == len(tids) {
			delete(w.lists, it)
			continue
		}
		if i > 0 {
			w.lists[it] = append(tids[:0], tids[i:]...)
		}
	}
	w.stale = 0
}

// minTid returns the smallest tid still inside the window.
func (w *Window) minTid() int64 { return w.seq - int64(w.live) }

// Mine returns the frequent item-sets of the current window contents at
// the given absolute minimum support.
func (w *Window) Mine(minsup int) (*mining.Result, error) {
	if err := mining.ValidateInput(nil, minsup); err != nil {
		return nil, err
	}
	min := w.minTid()
	type root struct {
		item itemset.Item
		tids []int64
	}
	var roots []root
	for it, tids := range w.lists {
		if live := tids[lowerBound(tids, min):]; len(live) >= minsup {
			roots = append(roots, root{it, live})
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].item.Less(roots[j].item) })
	var s search
	s.begin(w.live, minsup)
	for _, r := range roots {
		// Re-base the live tids onto window offsets for the shared search.
		b := s.addRoot(r.item, len(r.tids))
		for _, t := range r.tids {
			b[(t-min)>>6] |= 1 << ((t - min) & 63)
		}
	}
	return mining.BuildResult(s.mine(1), w.live, minsup), nil
}

// lowerBound returns the first index whose tid is >= min.
func lowerBound(tids []int64, min int64) int {
	lo, hi := 0, len(tids)
	for lo < hi {
		mid := (lo + hi) / 2
		if tids[mid] < min {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
