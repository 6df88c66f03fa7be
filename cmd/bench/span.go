package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans
// of one measurement interval share its index as identifier; parent is
// the index of the enclosing span in the tracer's slice (-1 for a
// root). n is the number of records or transactions the call was
// handed, the divisor of the ns-per-record metrics.
type span struct {
	Name     string `json:"name"`
	Interval int    `json:"interval"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	N        int    `json:"n"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name up to its first dot: the package the call
// belongs to ("mining.mine" -> "mining").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory and writes them once at exit. It is
// used from one goroutine only (the staged replay is single-threaded).
type tracer struct {
	t0       time.Time
	spans    []span
	stack    []int
	interval int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Interval: t.interval, Parent: parent})
	t.stack = append(t.stack, i)
	t.spans[i].Start = int64(time.Since(t.t0))
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i, n int) {
	t.spans[i].End = int64(time.Since(t.t0))
	t.spans[i].N = n
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span, its duration minus the part of it that
// its direct children cover. Children are clipped to the parent and
// overlapping children are counted once (the union of their extents),
// so concurrent children cannot drive a self time negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelf sums self times per layer, in nanoseconds.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].layer()] += ns
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	calls int
	ns    int64
	n     int64
	durMs []float64 // per call, milliseconds
}

func (s *spanStats) nsPer() float64 { return ratio(float64(s.ns), float64(s.n)) }

// byName groups spans by name; keep selects the spans to count (nil
// keeps all).
func byName(spans []span, keep func(span) bool) map[string]*spanStats {
	out := make(map[string]*spanStats)
	for _, s := range spans {
		if keep != nil && !keep(s) {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.calls++
		st.ns += s.dur()
		st.n += int64(s.N)
		st.durMs = append(st.durMs, float64(s.dur())/1e6)
	}
	return out
}
