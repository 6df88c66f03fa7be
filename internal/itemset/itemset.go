// Package itemset defines the transaction model of §II-B: every flow
// record maps to a transaction of exactly seven items, one per traffic
// feature, and frequent item-set mining searches for sets of (feature,
// value) pairs shared by at least a minimum-support number of flows.
//
// Ordering guarantees: FromFlows and AppendRows preserve flow order
// (transaction i is flow i), NewSet canonicalizes a set's items into
// ascending feature-kind order, and SortSets orders result slices by
// descending support with size and lexicographic tiebreaks — the
// deterministic shapes the cross-miner equivalence and
// byte-identical-report tests rely on.
package itemset

import (
	"fmt"
	"sort"
	"strings"

	"anomalyx/internal/flow"
)

// Item is one (feature kind, feature value) pair, e.g. dstPort=7000. By
// construction a transaction cannot contain two items of the same kind.
type Item struct {
	Kind  flow.FeatureKind
	Value uint64
}

// String renders the item in the paper's notation, e.g. "dstPort=7000".
func (it Item) String() string {
	return it.Kind.String() + "=" + flow.FormatValue(it.Kind, it.Value)
}

// Less orders items by feature kind, then value — the canonical item-set
// order.
func (it Item) Less(other Item) bool {
	if it.Kind != other.Kind {
		return it.Kind < other.Kind
	}
	return it.Value < other.Value
}

// Transaction is a flow record viewed as a transaction: feature values
// indexed by flow.FeatureKind. The transaction width is always seven.
type Transaction [flow.NumFeatures]uint64

// FromFlow converts a flow record to its transaction.
func FromFlow(rec *flow.Record) Transaction {
	var t Transaction
	for _, k := range flow.AllFeatures {
		t[k] = rec.Feature(k)
	}
	return t
}

// FromFlows converts a batch of flow records.
func FromFlows(recs []flow.Record) []Transaction {
	out := make([]Transaction, len(recs))
	for i := range recs {
		out[i] = FromFlow(&recs[i])
	}
	return out
}

// AppendRows appends the transactions of the given rows of buf to dst,
// in rows order — FromFlows without the intermediate row-form records.
func AppendRows(dst []Transaction, buf *flow.Buffer, rows []int32) []Transaction {
	for _, r := range rows {
		dst = append(dst, Transaction{
			flow.SrcIP: uint64(buf.SrcAddr[r]), flow.DstIP: uint64(buf.DstAddr[r]),
			flow.SrcPort: uint64(buf.SrcPort[r]), flow.DstPort: uint64(buf.DstPort[r]),
			flow.Proto: uint64(buf.Protocol[r]), flow.Packets: uint64(buf.Packets[r]),
			flow.Bytes: buf.Bytes[r],
		})
	}
	return dst
}

// Item returns the transaction's item of kind k.
func (t *Transaction) Item(k flow.FeatureKind) Item {
	return Item{Kind: k, Value: t[k]}
}

// Items returns all seven items in canonical order.
func (t *Transaction) Items() []Item {
	out := make([]Item, flow.NumFeatures)
	for _, k := range flow.AllFeatures {
		out[k] = Item{Kind: k, Value: t[k]}
	}
	return out
}

// Contains reports whether the transaction contains every item of set.
func (t *Transaction) Contains(set *Set) bool {
	for _, it := range set.Items {
		if t[it.Kind] != it.Value {
			return false
		}
	}
	return true
}

// Key is a canonical, comparable encoding of an item-set: a bitmask of
// the feature kinds present plus the value per kind. It serves as the map
// key in support counting.
type Key struct {
	Mask uint8
	Vals [flow.NumFeatures]uint64
}

// Add returns k extended with item it.
func (k Key) Add(it Item) Key {
	k.Mask |= 1 << it.Kind
	k.Vals[it.Kind] = it.Value
	return k
}

// Size returns the number of items in the key.
func (k Key) Size() int {
	n := 0
	for m := k.Mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Items decodes the key back to canonical item order.
func (k Key) Items() []Item {
	out := make([]Item, 0, k.Size())
	for _, kind := range flow.AllFeatures {
		if k.Mask&(1<<kind) != 0 {
			out = append(out, Item{Kind: kind, Value: k.Vals[kind]})
		}
	}
	return out
}

// KeyOf builds the canonical key of items. Items must have pairwise
// distinct kinds; it panics otherwise (transactions cannot contain two
// items of the same feature).
func KeyOf(items []Item) Key {
	var k Key
	for _, it := range items {
		if k.Mask&(1<<it.Kind) != 0 {
			panic(fmt.Sprintf("itemset: duplicate feature kind %v", it.Kind))
		}
		k = k.Add(it)
	}
	return k
}

// Set is a frequent item-set with its support count.
type Set struct {
	Items   []Item // canonical order (ascending feature kind)
	Support int    // number of transactions containing the set
}

// NewSet builds a Set from items (copied and canonicalized) and support.
func NewSet(items []Item, support int) Set {
	cp := make([]Item, len(items))
	copy(cp, items)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	return Set{Items: cp, Support: support}
}

// Key returns the set's canonical key.
func (s *Set) Key() Key { return KeyOf(s.Items) }

// Size returns the number of items (the "k" of a k-item-set).
func (s *Set) Size() int { return len(s.Items) }

// Has reports whether the set contains item it.
func (s *Set) Has(it Item) bool {
	for _, x := range s.Items {
		if x == it {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every item of s appears in t.
func (s *Set) SubsetOf(t *Set) bool {
	if s.Size() > t.Size() {
		return false
	}
	for _, it := range s.Items {
		if !t.Has(it) {
			return false
		}
	}
	return true
}

// String renders the set like "{dstPort=7000, proto=6} (support 53467)".
func (s *Set) String() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	return "{" + strings.Join(parts, ", ") + fmt.Sprintf("} (support %d)", s.Support)
}

// SortSets orders sets by support (descending), then size (descending),
// then lexicographically — the stable report order used everywhere.
func SortSets(sets []Set) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := &sets[i], &sets[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if a.Size() != b.Size() {
			return a.Size() > b.Size()
		}
		for k := 0; k < a.Size() && k < b.Size(); k++ {
			if a.Items[k] != b.Items[k] {
				return a.Items[k].Less(b.Items[k])
			}
		}
		return false
	})
}
