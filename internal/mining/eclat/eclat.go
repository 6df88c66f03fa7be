// Package eclat implements the Eclat frequent item-set miner (vertical
// tid-set intersection, Zaki [35] in the paper's bibliography) over tid
// bitsets: every frequent item carries one bit per transaction, and the
// support of a combination is the popcount of a word-wise AND. It is the
// pipeline's built-in miner (Scratch.MineColumns mines prefilter survivor
// rows straight off flow.Buffer columns), the row-form mining.Miner, and
// the sliding-window variant sketched by Li and Deng [21] — three feeders
// of one search. All produce exactly the frequent item-sets of the
// Apriori and FP-Growth implementations.
//
// Determinism: frequent items enter the search in canonical (kind, value)
// order whatever order the transactions arrive in, and mining.BuildResult
// sorts the output, so a Result depends only on the multiset of
// transactions. The search runs on the caller's goroutine; the package
// starts none of its own.
package eclat

import (
	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
)

// Miner is the Eclat implementation of mining.Miner.
type Miner struct{}

// New returns an Eclat miner.
func New() *Miner { return &Miner{} }

// Name implements mining.Miner.
func (m *Miner) Name() string { return "eclat" }

// Mine implements mining.Miner over a call-local Scratch, so one Miner
// may serve concurrent callers.
func (m *Miner) Mine(txs []itemset.Transaction, minsup int) (*mining.Result, error) {
	if err := mining.ValidateInput(txs, minsup); err != nil {
		return nil, err
	}
	var s Scratch
	s.begin(len(txs), minsup)
	col, all := make([]uint64, len(txs)), make([]int32, len(txs))
	for i := range all {
		all[i] = int32(i)
	}
	for _, k := range flow.AllFeatures {
		for i := range txs {
			col[i] = txs[i][k]
		}
		s.column(k, func(exact bool) { count(&s, col, all, 0, exact) })
	}
	return mining.BuildResult(s.mine(), len(txs), minsup), nil
}

// MineColumns mines the transactions formed by rows[i] of bufs[i], for
// every i in order: transaction ids follow the concatenation of the row
// lists, and no transaction is materialized — each feature column is
// counted and bit-marked in place. minsup must be positive. The Result
// is deeply equal to what any mining.Miner returns for the same
// transactions; s is left ready for the next call, keeping its memory.
func (s *Scratch) MineColumns(bufs []*flow.Buffer, rows [][]int32, minsup int) *mining.Result {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	s.begin(n, minsup)
	for _, k := range flow.AllFeatures {
		s.column(k, func(exact bool) {
			tid := 0
			for i, b := range bufs {
				switch k {
				case flow.SrcIP:
					count(s, b.SrcAddr, rows[i], tid, exact)
				case flow.DstIP:
					count(s, b.DstAddr, rows[i], tid, exact)
				case flow.SrcPort:
					count(s, b.SrcPort, rows[i], tid, exact)
				case flow.DstPort:
					count(s, b.DstPort, rows[i], tid, exact)
				case flow.Proto:
					count(s, b.Protocol, rows[i], tid, exact)
				case flow.Packets:
					count(s, b.Packets, rows[i], tid, exact)
				case flow.Bytes:
					count(s, b.Bytes, rows[i], tid, exact)
				}
				tid += len(rows[i])
			}
		})
	}
	return mining.BuildResult(s.mine(), n, minsup)
}
