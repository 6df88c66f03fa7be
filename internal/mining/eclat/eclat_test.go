package eclat

import (
	"reflect"
	"slices"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining/apriori"
)

func TestAnd(t *testing.T) {
	a := []uint64{0b1110, ^uint64(0), 0}
	b := []uint64{0b0111, 1 << 63, 5}
	dst := []uint64{9, 9, 9}
	if n := and(dst, a, b); n != 3 {
		t.Errorf("and counted %d bits, want 3", n)
	}
	if want := []uint64{0b0110, 1 << 63, 0}; !slices.Equal(dst, want) {
		t.Errorf("and stored %b, want %b", dst, want)
	}
	if n := and(nil, nil, nil); n != 0 {
		t.Errorf("empty and counted %d bits", n)
	}
}

// searchOver builds a search over n transactions from (item, tids) roots
// given in canonical order.
func searchOver(n, minsup int, items []itemset.Item, tids [][]int) *search {
	s := &search{}
	s.begin(n, minsup)
	for i, it := range items {
		b := s.addRoot(it, len(tids[i]))
		for _, t := range tids[i] {
			b[t>>6] |= 1 << (t & 63)
		}
	}
	return s
}

func TestSearchDFS(t *testing.T) {
	a := itemset.Item{Kind: flow.SrcIP, Value: 1}
	b := itemset.Item{Kind: flow.DstIP, Value: 2}
	// Tids straddle a word boundary: n is not a multiple of 64.
	s := searchOver(70, 3, []itemset.Item{a, b}, [][]int{{0, 1, 64, 69}, {0, 64, 69}})
	all := s.mine()
	// {a}:4, {b}:3, {a,b}:3.
	if len(all) != 3 {
		t.Fatalf("sets = %v", all)
	}
	found := map[string]int{}
	for i := range all {
		found[all[i].String()] = all[i].Support
	}
	if found["{srcIP=0.0.0.1} (support 4)"] != 4 || found["{srcIP=0.0.0.1, dstIP=0.0.0.2} (support 3)"] != 3 {
		t.Errorf("missing sets: %v", found)
	}
}

func TestSearchSkipsSameKind(t *testing.T) {
	p80 := itemset.Item{Kind: flow.DstPort, Value: 80}
	p443 := itemset.Item{Kind: flow.DstPort, Value: 443}
	all := searchOver(4, 2, []itemset.Item{p80, p443}, [][]int{{0, 1}, {2, 3}}).mine()
	for i := range all {
		if all[i].Size() > 1 {
			t.Errorf("same-kind combination emitted: %v", all[i])
		}
	}
}

// TestScratchReuse: one Scratch mined over differently shaped inputs in
// turn — growing, shrinking, empty — returns what a fresh one does, so no
// table entry, slot or bitset leaks from one run into the next.
func TestScratchReuse(t *testing.T) {
	var shared Scratch
	for _, n := range []int{300, 40, 0, 1, 65, 300} {
		recs := make([]flow.Record, n)
		rows := make([]int32, n)
		for i := range recs {
			recs[i] = flow.Record{SrcAddr: uint32(i % 3), DstPort: uint16(i % 2), Packets: uint32(i%5 + 2), Bytes: uint64(i)}
			rows[i] = int32(i)
		}
		buf := flow.BufferOf(recs)
		bufs, sel := []*flow.Buffer{&buf}, [][]int32{rows}
		var fresh Scratch
		want := fresh.MineColumns(bufs, sel, max(1, n/10))
		if got := shared.MineColumns(bufs, sel, max(1, n/10)); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: reused scratch diverged\ngot:  %+v\nwant: %+v", n, got, want)
		}
	}
}

func TestWindowLowerBound(t *testing.T) {
	tids := []int64{1, 3, 5, 7, 9}
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 5: 2, 6: 3, 9: 4, 10: 5}
	for min, want := range cases {
		if got := lowerBound(tids, min); got != want {
			t.Errorf("lowerBound(%d) = %d, want %d", min, got, want)
		}
	}
	if lowerBound(nil, 5) != 0 {
		t.Error("empty list")
	}
}

func TestWindowCompactDropsDeadItems(t *testing.T) {
	w := NewWindow(10)
	old := itemset.FromFlow(&flow.Record{DstPort: 7777})
	for i := 0; i < 10; i++ {
		w.Push(old)
	}
	fresh := itemset.FromFlow(&flow.Record{DstPort: 80})
	// Push enough to evict all old transactions and trigger compaction.
	for i := 0; i < 25; i++ {
		w.Push(fresh)
	}
	if _, ok := w.lists[itemset.Item{Kind: flow.DstPort, Value: 7777}]; ok {
		t.Error("evicted item still holds a tid-list after compaction")
	}
	if w.Len() != 10 {
		t.Errorf("Len = %d", w.Len())
	}
}

func TestWindowMineRespectsMinsupValidation(t *testing.T) {
	w := NewWindow(5)
	if _, err := w.Mine(0); err == nil {
		t.Error("minsup 0 accepted")
	}
}

func TestMinerName(t *testing.T) {
	if New().Name() != "eclat" {
		t.Error("name")
	}
}

func TestMineEndToEnd(t *testing.T) {
	var txs []itemset.Transaction
	for i := 0; i < 20; i++ {
		rec := flow.Record{DstPort: 445, Protocol: 6, Packets: 1, Bytes: 48,
			SrcAddr: 99, DstAddr: uint32(i), SrcPort: uint16(i + 1000)}
		txs = append(txs, itemset.FromFlow(&rec))
	}
	res, err := New().Mine(txs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maximal) != 1 {
		t.Fatalf("maximal = %v", res.Maximal)
	}
	// The shared items {srcIP, dstPort, proto, packets, bytes} all
	// co-occur in every transaction.
	if res.Maximal[0].Size() != 5 || res.Maximal[0].Support != 20 {
		t.Errorf("got %v", res.Maximal[0])
	}
	if _, err := New().Mine(txs, 0); err == nil {
		t.Error("minsup 0 accepted")
	}
}

func TestWindowAccessors(t *testing.T) {
	w := NewWindow(7)
	if w.capacity != 7 || w.Len() != 0 {
		t.Errorf("capacity %d len %d", w.capacity, w.Len())
	}
	w.Push(itemset.FromFlow(&flow.Record{DstPort: 1}))
	if w.Len() != 1 {
		t.Errorf("len %d", w.Len())
	}
}

func TestWindowMineFindsCooccurrence(t *testing.T) {
	w := NewWindow(50)
	for i := 0; i < 30; i++ {
		w.Push(itemset.FromFlow(&flow.Record{
			DstPort: 9996, Protocol: 6, Packets: 3, Bytes: 300,
			SrcAddr: uint32(i), DstAddr: uint32(2 * i), SrcPort: uint16(i),
		}))
	}
	res, err := w.Mine(25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maximal) != 1 || res.Maximal[0].Support != 30 {
		t.Fatalf("maximal = %v", res.Maximal)
	}
	if res.Transactions != 30 {
		t.Errorf("Transactions = %d", res.Transactions)
	}
}

// TestBucketBound pins the hash filter's exactness where it is weakest:
// values that share one bucket. Whatever the bucket's count, only the
// values' own counts decide which become roots, so every Result is
// deeply equal to Apriori's, through the columns and through the
// row-form Miner.
func TestBucketBound(t *testing.T) {
	const n = 1000
	// The colliding values do share a bucket in a Scratch begun for n.
	var s Scratch
	s.begin(n, 1)
	rows := make([]int32, len(colliding))
	for i := range rows {
		rows[i] = int32(i)
	}
	clear(s.buckets[:])
	count(&s, colliding, rows, 0, false)
	used := 0
	for lanes := range slices.Chunk(s.buckets[:], 4) {
		if slices.ContainsFunc(lanes, func(c int32) bool { return c != 0 }) {
			used++
		}
	}
	if s.bucketBits == 0 || used != 1 {
		t.Fatalf("colliding values fill %d of %d buckets, want 1", used, 1<<s.bucketBits)
	}

	// mix builds n records whose source addresses are the colliding
	// values, per[i] records of colliding[i], and the rest distinct.
	mix := func(per []int) []flow.Record {
		recs := make([]flow.Record, 0, n)
		for i, k := range per {
			for j := 0; j < k; j++ {
				recs = append(recs, flow.Record{SrcAddr: uint32(colliding[i]), DstPort: uint16(j % 3), Protocol: 6})
			}
		}
		for len(recs) < n {
			recs = append(recs, flow.Record{SrcAddr: 1<<31 + uint32(len(recs)), DstPort: 443, Protocol: 17})
		}
		return recs
	}
	cases := []struct {
		name   string
		per    []int
		minsup int
		root   bool // colliding[0] is frequent
	}{
		// 8×30 = 240 rows in one bucket, every value light.
		{"heavy bucket of light values", []int{30, 30, 30, 30, 30, 30, 30, 30}, 100, false},
		// One frequent value among light ones in its bucket.
		{"frequent value among light ones", []int{150, 10, 10, 10, 10, 10, 10, 10}, 100, true},
		{"every bucket heavy", []int{3, 2, 1}, 1, true},
		{"no bucket heavy", []int{150, 10}, n + 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recs := mix(c.per)
			txs := itemset.FromFlows(recs)
			want, err := apriori.New().Mine(txs, c.minsup)
			if err != nil {
				t.Fatal(err)
			}
			root := itemset.Item{Kind: flow.SrcIP, Value: colliding[0]}
			if got := slices.ContainsFunc(want.All, func(s itemset.Set) bool {
				return s.Size() == 1 && s.Items[0] == root
			}); got != c.root {
				t.Fatalf("Apriori finds %v frequent: %v, want %v", root, got, c.root)
			}
			buf := flow.BufferOf(recs)
			all := make([]int32, n)
			for i := range all {
				all[i] = int32(i)
			}
			var s Scratch
			if got := s.MineColumns([]*flow.Buffer{&buf}, [][]int32{all}, c.minsup); !reflect.DeepEqual(got, want) {
				t.Errorf("columnar result diverged from Apriori\ngot:  %+v\nwant: %+v", got, want)
			}
			if got, err := New().Mine(txs, c.minsup); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("row-form result diverged from Apriori (err %v)\ngot:  %+v\nwant: %+v", err, got, want)
			}
		})
	}
}

// TestScratchHoldsNoTableForLightValues: mining 200 000 transactions
// whose every value is far below the minimum support leaves a Scratch
// holding its fixed buckets and a minimal candidate index, nothing
// proportional to the transactions: no bucket is heavy, so no value is
// counted exactly and no transaction gets a candidate id.
func TestScratchHoldsNoTableForLightValues(t *testing.T) {
	const n = 200_000
	var buf flow.Buffer
	rows := make([]int32, n)
	for i := range rows {
		buf.Append(flow.Record{
			SrcAddr: uint32(i), DstAddr: uint32(3 * i), SrcPort: uint16(i), DstPort: uint16(i >> 2),
			Protocol: uint8(i), Packets: uint32(i), Bytes: uint64(i) * 40,
		})
		rows[i] = int32(i)
	}
	var s Scratch
	// Each protocol value, the most repeated, is held by 782 rows.
	res := s.MineColumns([]*flow.Buffer{&buf}, [][]int32{rows}, n/50)
	if len(res.All) != 0 {
		t.Fatalf("found %d frequent item-sets, want none", len(res.All))
	}
	held := 4*cap(s.index) + 8*cap(s.values) + 4*cap(s.counts) + 4*cap(s.slot) + 8*cap(s.levels[0].bits)
	if held > 4*minIndex+64 {
		t.Errorf("scratch holds %d bytes of tables after %d light transactions: index %d, values %d, slot %d",
			held, n, cap(s.index), cap(s.values), cap(s.slot))
	}
}
