package eclat

import (
	"reflect"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining/apriori"
)

// colliding holds eight values whose hashes share their top
// maxBucketBits bits, so they fall into one bucket however many buckets
// a Scratch uses.
var colliding = func() []uint64 {
	var vs []uint64
	for v := uint64(1); len(vs) < 8; v++ {
		if v*hashMul>>(64-maxBucketBits) == 0 {
			vs = append(vs, v)
		}
	}
	return vs
}()

// fuzzColumns decodes data into two flow buffers and a survivor row
// selection over each, 8 bytes per record: six small feature values so
// frequent co-occurrences exist, a byte spreading some values over the
// whole width of their column type (the counting table must hash high
// bits too), and a byte choosing the record's buffer, whether the
// prefilter "kept" it, and whether its addresses and byte count are
// drawn from the colliding values instead, so that one bucket holds
// frequent and light values together.
func fuzzColumns(data []byte) ([]*flow.Buffer, [][]int32) {
	bufs := []*flow.Buffer{{}, {}}
	rows := make([][]int32, 2)
	for len(data) >= 8 {
		b := data[:8]
		data = data[8:]
		wide := uint64(b[6]%4) * 0x4000_0001_0001_0001
		rec := flow.Record{
			SrcAddr: uint32(b[0]%8) + uint32(wide), DstAddr: uint32(b[1] % 6),
			SrcPort: uint16(b[2]%8) + uint16(wide), DstPort: uint16(b[3] % 4),
			Protocol: b[4] % 3,
			Packets:  uint32(b[5]%6) + 1, Bytes: uint64(b[5]%5+1)*40 + wide,
		}
		if b[7]&8 != 0 {
			rec.SrcAddr, rec.DstAddr = uint32(colliding[b[0]%8]), uint32(colliding[b[1]%6])
			rec.Bytes = colliding[b[5]%5]
		}
		buf := bufs[b[7]&1]
		if b[7]&6 != 0 { // three rows in four survive
			rows[b[7]&1] = append(rows[b[7]&1], int32(buf.Len()))
		}
		buf.Append(rec)
	}
	return bufs, rows
}

// FuzzColumnMinerParity pins the built-in miner to the paper's: for any
// column contents, survivor selection, shard split and minimum support,
// the bitset Eclat over buffer columns — through a Scratch an unrelated
// run has already dirtied — returns a Result deeply equal to Apriori's
// over the same rows as transactions, and so does the row-form Miner.
func FuzzColumnMinerParity(f *testing.F) {
	f.Add([]byte{}, byte(1))
	f.Add([]byte{1, 2, 3, 0, 1, 2, 0, 2, 1, 2, 3, 0, 1, 3, 0, 3, 1, 2, 3, 0, 1, 7, 3, 6, 9, 9, 9, 9, 9, 9, 1, 0}, byte(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1, 2, 4, 7, 7, 7, 7, 7, 7, 3, 5}, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, minsupRaw byte) {
		bufs, rows := fuzzColumns(data)
		var txs []itemset.Transaction
		for i := range bufs {
			txs = itemset.AppendRows(txs, bufs[i], rows[i])
		}
		minsup := 1 + int(minsupRaw)%(len(txs)+1)
		want, err := apriori.New().Mine(txs, minsup)
		if err != nil {
			t.Fatal(err)
		}

		var s Scratch
		s.MineColumns(bufs[:1], rows[:1], minsup+1)
		if got := s.MineColumns(bufs, rows, minsup); !reflect.DeepEqual(got, want) {
			t.Fatalf("minsup=%d: columnar result diverged from Apriori\ngot:  %+v\nwant: %+v", minsup, got, want)
		}
		got, err := New().Mine(txs, minsup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("minsup=%d: row-form result diverged from Apriori\ngot:  %+v\nwant: %+v", minsup, got, want)
		}
	})
}
