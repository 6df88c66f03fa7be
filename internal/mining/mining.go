// Package mining defines the shared frequent item-set mining contract —
// the Miner interface, the Result/level statistics the paper's Table II
// reports, and the maximal-item-set filter of the "modified Apriori"
// (§II-B) — used by the apriori, fpgrowth, and eclat implementations.
//
// The contract is deterministic and order-insensitive: a Result depends
// only on the multiset of input transactions and the minimum support,
// never on transaction order, and its item-set slices are in the
// canonical itemset.SortSets order. That insensitivity is what lets
// sharded and distributed interval closes concatenate suspicious flows
// in shard or agent order and still produce byte-identical reports.
package mining

import (
	"errors"
	"fmt"

	"anomalyx/internal/itemset"
)

// ErrBadSupport is returned for non-positive minimum support values.
var ErrBadSupport = errors.New("mining: minimum support must be positive")

// LevelStat records, for one item-set size k, how many frequent
// k-item-sets were found and how many survived the maximality filter —
// the per-round narrative of Table II ("60 frequent 1-item-sets were
// found; 58 of these were removed from the output as subsets of at least
// one frequent 2-item-set...").
type LevelStat struct {
	Level    int // the k of k-item-sets
	Frequent int // frequent k-item-sets found
	Maximal  int // of those, maximal (not subset of a frequent superset)
}

// Result is the outcome of one mining run.
type Result struct {
	// All holds every frequent item-set, in the canonical report order.
	All []itemset.Set
	// Maximal holds only the maximal frequent item-sets — the modified
	// Apriori output the operator reads.
	Maximal []itemset.Set
	// Levels holds per-size statistics, index 0 = 1-item-sets.
	Levels []LevelStat
	// Transactions is the input size, MinSupport the threshold used.
	Transactions int
	MinSupport   int
}

// Miner is a frequent item-set mining algorithm over flow transactions.
type Miner interface {
	// Mine returns the frequent item-sets of txs at minimum support
	// minsup (an absolute transaction count, as in the paper).
	Mine(txs []itemset.Transaction, minsup int) (*Result, error)
	// Name identifies the algorithm ("apriori", "fp-growth", "eclat").
	Name() string
}

// BuildResult assembles a Result from the complete collection of frequent
// item-sets: it computes the maximality filter, level statistics, and the
// canonical orderings. Every miner funnels through here so that all
// algorithms produce identical, comparable results.
func BuildResult(all []itemset.Set, transactions, minsup int) *Result {
	itemset.SortSets(all)
	maximal := FilterMaximal(all)

	maxLevel := 0
	for i := range all {
		if all[i].Size() > maxLevel {
			maxLevel = all[i].Size()
		}
	}
	levels := make([]LevelStat, maxLevel)
	for i := range levels {
		levels[i].Level = i + 1
	}
	for i := range all {
		levels[all[i].Size()-1].Frequent++
	}
	for i := range maximal {
		levels[maximal[i].Size()-1].Maximal++
	}
	return &Result{
		All: all, Maximal: maximal, Levels: levels,
		Transactions: transactions, MinSupport: minsup,
	}
}

// FilterMaximal returns the maximal sets of a complete frequent
// collection: those that are not a subset of any other frequent set. By
// downward closure it suffices to check immediate (size+1) supersets,
// which the implementation does by marking every size-k subset of every
// (k+1)-set.
func FilterMaximal(all []itemset.Set) []itemset.Set {
	subsumed := make(map[itemset.Key]bool, len(all))
	for i := range all {
		s := &all[i]
		n := s.Size()
		if n < 2 {
			continue
		}
		// Mark each (n-1)-subset (drop one item at a time).
		for drop := 0; drop < n; drop++ {
			var k itemset.Key
			for j, it := range s.Items {
				if j != drop {
					k = k.Add(it)
				}
			}
			subsumed[k] = true
		}
	}
	var out []itemset.Set
	for i := range all {
		if !subsumed[all[i].Key()] {
			out = append(out, all[i])
		}
	}
	itemset.SortSets(out)
	return out
}

// ValidateInput performs the shared argument checks.
func ValidateInput(txs []itemset.Transaction, minsup int) error {
	if minsup <= 0 {
		return fmt.Errorf("%w: %d", ErrBadSupport, minsup)
	}
	return nil
}

// TopK returns the k highest-support sets of a sorted result slice (the
// paper's §II-E suggestion of ranking item-sets by frequency and keeping
// the top 10 or 20).
func TopK(sets []itemset.Set, k int) []itemset.Set {
	if k >= len(sets) {
		return sets
	}
	return sets[:k]
}

// Equal reports whether two mining results contain the same frequent
// item-sets with the same supports (used by cross-algorithm property
// tests: Apriori, FP-Growth, and Eclat must agree exactly).
func Equal(a, b *Result) bool {
	if len(a.All) != len(b.All) {
		return false
	}
	am := make(map[itemset.Key]int, len(a.All))
	for i := range a.All {
		am[a.All[i].Key()] = a.All[i].Support
	}
	for i := range b.All {
		if sup, ok := am[b.All[i].Key()]; !ok || sup != b.All[i].Support {
			return false
		}
	}
	return true
}
