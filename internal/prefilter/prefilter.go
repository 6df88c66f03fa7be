// Package prefilter selects the suspicious-flow set from alarm meta-data
// (§II-A). The paper's key design decision is to keep every flow matching
// *any* meta-data value (the union) rather than flows matching all values
// (the intersection): multistage anomalies such as the Sasser worm have
// flow-disjoint meta-data, for which the intersection is empty while the
// union covers every stage. The pipeline always scans with Union;
// Intersection exists only as the DoWitcher-style comparison baseline
// (§IV) that the §II-A experiment and the tests measure against.
//
// There is one scan: SelectBuffer walks a columnar flow.Buffer one
// annotated feature column at a time and returns the matching rows'
// indices, which the extraction stage mines in place. FilterParallel,
// FilterBufferParallel and Count are adapters over it that gather rows
// or count them. detector.MetaData's MatchesFlow and MatchesFlowAll
// state the two strategies' predicates record by record; the tests hold
// the scan to them.
//
// Ordering guarantee: every entry point returns matches in row order,
// and a parallel scan concatenates per-chunk output in range order, so
// the output is byte-identical for every worker count — the property
// FuzzPrefilterParity pins down.
package prefilter

import (
	"runtime"
	"sync"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
)

// Strategy selects flows given meta-data, scanning a columnar chunk
// directly.
type Strategy interface {
	// Name identifies the strategy.
	Name() string
	// MatchColumns sets matched[i-lo] non-zero for exactly the rows i in
	// [lo, hi) of buf the strategy selects under m, and leaves the other
	// entries zero; matched arrives zeroed with length hi-lo.
	MatchColumns(m detector.MetaData, buf *flow.Buffer, lo, hi int, matched []int32)
}

// Union keeps flows matching at least one meta-data value — the paper's
// choice, m.MatchesFlow record by record.
type Union struct{}

// Name implements Strategy.
func (Union) Name() string { return "union" }

// Intersection keeps flows matching a meta-data value in every annotated
// feature — the baseline the paper shows can miss anomalies entirely;
// m.MatchesFlowAll record by record.
type Intersection struct{}

// Name implements Strategy.
func (Intersection) Name() string { return "intersection" }

// minParallelRecords is the input size below which the parallel scan
// runs sequentially: the chunk bookkeeping and goroutine fan-out cost
// more than they save on small inputs.
const minParallelRecords = 2048

// resolveWorkers maps a workers argument (0 = GOMAXPROCS, 1 =
// sequential) onto an effective chunk count for n records.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// markColumn visits feature column k of buf[lo:hi]. With all unset it
// marks the rows holding one of vals (the union step); with all set it
// unmarks the still-marked rows holding none (the intersection step).
func markColumn(vals map[uint64]struct{}, buf *flow.Buffer, k flow.FeatureKind, lo, hi int, matched []int32, all bool) {
	switch k {
	case flow.SrcIP:
		markValues(vals, buf.SrcAddr[lo:hi], matched, all)
	case flow.DstIP:
		markValues(vals, buf.DstAddr[lo:hi], matched, all)
	case flow.SrcPort:
		markValues(vals, buf.SrcPort[lo:hi], matched, all)
	case flow.DstPort:
		markValues(vals, buf.DstPort[lo:hi], matched, all)
	case flow.Proto:
		markValues(vals, buf.Protocol[lo:hi], matched, all)
	case flow.Packets:
		markValues(vals, buf.Packets[lo:hi], matched, all)
	case flow.Bytes:
		markValues(vals, buf.Bytes[lo:hi], matched, all)
	}
}

func markValues[T ~uint8 | ~uint16 | ~uint32 | ~uint64](vals map[uint64]struct{}, col []T, matched []int32, all bool) {
	// Either way, only the rows this column can still change are looked up.
	if all {
		for i, v := range col {
			if matched[i] != 0 {
				if _, in := vals[uint64(v)]; !in {
					matched[i] = 0
				}
			}
		}
		return
	}
	for i, v := range col {
		if matched[i] == 0 {
			if _, in := vals[uint64(v)]; in {
				matched[i] = 1
			}
		}
	}
}

// MatchColumns implements Strategy: a row matches when any annotated
// feature column holds an annotated value at it. Only the annotated
// columns are read.
func (Union) MatchColumns(m detector.MetaData, buf *flow.Buffer, lo, hi int, matched []int32) {
	for _, k := range flow.AllFeatures {
		if vals := m[k]; len(vals) > 0 {
			markColumn(vals, buf, k, lo, hi, matched, false)
		}
	}
}

// MatchColumns implements Strategy: a row matches when every annotated
// feature column holds an annotated value at it (and at least one
// feature is annotated, mirroring MatchesFlowAll on the empty
// annotation).
func (Intersection) MatchColumns(m detector.MetaData, buf *flow.Buffer, lo, hi int, matched []int32) {
	if m.Count() == 0 {
		return
	}
	for i := range matched {
		matched[i] = 1
	}
	for _, k := range flow.AllFeatures {
		if vals := m[k]; len(vals) > 0 {
			markColumn(vals, buf, k, lo, hi, matched, true)
		}
	}
}

// selectRange scans rows [lo, hi) of buf and writes the indices of the
// rows strategy s selects, ascending, to the front of dst — which must
// have length hi-lo and doubles as the scan's match-mark array — and
// returns how many there are.
func selectRange(s Strategy, m detector.MetaData, buf *flow.Buffer, lo, hi int, dst []int32) int {
	clear(dst)
	s.MatchColumns(m, buf, lo, hi, dst)
	// Compact in place: the write position never passes the read one.
	n := 0
	for i, ok := range dst {
		if ok != 0 {
			dst[n] = int32(lo + i)
			n++
		}
	}
	return n
}

// SelectBuffer is the one scan: it returns the indices of the rows of
// buf that strategy s selects under meta-data m, ascending. The result
// reuses dst's memory when its capacity covers buf.Len() (dst's
// contents are ignored), so a caller that passes the previous result
// back scans without allocating. workers 0 means GOMAXPROCS. With one
// worker or a small input the scan is sequential; otherwise contiguous
// row ranges are scanned concurrently and their selections
// concatenated in range order.
func SelectBuffer(s Strategy, m detector.MetaData, buf *flow.Buffer, workers int, dst []int32) []int32 {
	n := buf.Len()
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	workers = resolveWorkers(workers, n)
	if workers <= 1 || n < minParallelRecords {
		return dst[:selectRange(s, m, buf, 0, n, dst)]
	}
	counts := make([]int, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w*chunk < n; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[w] = selectRange(s, m, buf, lo, hi, dst[lo:hi])
		}()
	}
	wg.Wait()
	total := 0
	for w, c := range counts {
		total += copy(dst[total:], dst[w*chunk:w*chunk+c])
	}
	return dst[:total]
}

// gather materializes rows of buf in row form; no rows gather to nil.
func gather(buf *flow.Buffer, rows []int32) []flow.Record {
	if len(rows) == 0 {
		return nil
	}
	out := make([]flow.Record, len(rows))
	for i, r := range rows {
		out[i] = buf.Record(int(r))
	}
	return out
}

// FilterBufferParallel returns the rows of buf strategy s selects under
// meta-data m, in row order, scanning over workers as SelectBuffer does.
func FilterBufferParallel(s Strategy, m detector.MetaData, buf *flow.Buffer, workers int) []flow.Record {
	return gather(buf, SelectBuffer(s, m, buf, workers, nil))
}

// FilterParallel returns the flows of recs strategy s selects under
// meta-data m, in input order: recs are transposed into a flow.Buffer
// and scanned over workers as SelectBuffer does.
func FilterParallel(s Strategy, m detector.MetaData, recs []flow.Record, workers int) []flow.Record {
	buf := flow.BufferOf(recs)
	return FilterBufferParallel(s, m, &buf, workers)
}

// Count returns how many flows of recs strategy s selects, without
// materializing them.
func Count(s Strategy, m detector.MetaData, recs []flow.Record) int {
	buf := flow.BufferOf(recs)
	return len(SelectBuffer(s, m, &buf, 1, nil))
}
