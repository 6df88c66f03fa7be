package prefilter

import (
	"sync"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
)

// This file is the columnar face of the package: the same strategies,
// scanning a flow.Buffer column by column instead of gathering rows. A
// strategy that implements ColumnStrategy is driven one feature column
// at a time — the scan touches only the columns the meta-data actually
// annotates, cache-linear over each — and its outcome is the matching
// rows' indices: SelectBuffer is the one scan, and the extraction stage
// mines those indices without ever materializing a row. Strategies
// without a columnar form fall back to a row gather per record,
// preserving exact Match semantics.
//
// Ordering guarantee: like Filter/FilterParallel, SelectBuffer and its
// gathering views return matches in row order, and a parallel scan
// concatenates per-chunk output in range order — byte-identical to the
// sequential scan for every worker count, and element-identical to the
// row-form Filter over the same records (the differential tests pin
// both).

// ColumnStrategy is implemented by strategies that can evaluate a
// columnar chunk directly. MatchColumns must set matched[i-lo] non-zero
// for exactly the rows i in [lo, hi) the strategy's Match would select,
// and leave other entries zero; matched arrives zeroed with length
// hi-lo.
type ColumnStrategy interface {
	Strategy
	MatchColumns(m detector.MetaData, buf *flow.Buffer, lo, hi int, matched []int32)
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

// MatchColumns implements ColumnStrategy: a row matches when any
// annotated feature column holds an annotated value at it. Only the
// annotated columns are read.
func (Union) MatchColumns(m detector.MetaData, buf *flow.Buffer, lo, hi int, matched []int32) {
	for _, k := range flow.AllFeatures {
		if vals := m[k]; len(vals) > 0 {
			markColumn(vals, buf, k, lo, hi, matched, false)
		}
	}
}

// MatchColumns implements ColumnStrategy: a row matches when every
// annotated feature column holds an annotated value at it (and at
// least one feature is annotated, mirroring MatchesFlowAll on the
// empty annotation).
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
	n := 0
	cs, columnar := s.(ColumnStrategy)
	if !columnar {
		// Row-gather fallback for strategies without a columnar form.
		for i := lo; i < hi; i++ {
			if rec := buf.Record(i); s.Match(m, &rec) {
				dst[n] = int32(i)
				n++
			}
		}
		return n
	}
	clear(dst)
	cs.MatchColumns(m, buf, lo, hi, dst)
	// Compact in place: the write position never passes the read one.
	for i, ok := range dst {
		if ok != 0 {
			dst[n] = int32(lo + i)
			n++
		}
	}
	return n
}

// SelectBuffer is the one columnar scan: it returns the indices of the
// rows of buf that strategy s selects under meta-data m, ascending. The
// result reuses dst's memory when its capacity covers buf.Len() (dst's
// contents are ignored), so a caller that passes the previous result
// back scans without allocating. workers follows the Config.Workers
// convention (0 = GOMAXPROCS, <= 1 or small inputs run sequentially):
// contiguous row ranges are scanned concurrently and their selections
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

// gather materializes rows of buf in row form; no rows gather to nil,
// matching Filter's append-to-nil shape.
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

// FilterBuffer returns the rows of buf selected by strategy s under
// meta-data m, in row order — Filter over the columnar buffer.
func FilterBuffer(s Strategy, m detector.MetaData, buf *flow.Buffer) []flow.Record {
	return gather(buf, SelectBuffer(s, m, buf, 1, nil))
}

// CountBuffer returns how many rows of buf strategy s selects.
func CountBuffer(s Strategy, m detector.MetaData, buf *flow.Buffer) int {
	return len(SelectBuffer(s, m, buf, 1, nil))
}

// FilterBufferParallel is FilterBuffer over SelectBuffer's chunked
// worker fan-out — byte-identical to the sequential FilterBuffer for
// every worker count.
func FilterBufferParallel(s Strategy, m detector.MetaData, buf *flow.Buffer, workers int) []flow.Record {
	return gather(buf, SelectBuffer(s, m, buf, workers, nil))
}
