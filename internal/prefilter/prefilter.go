// Package prefilter selects the suspicious-flow set from alarm meta-data
// (§II-A). The paper's key design decision is to keep every flow matching
// *any* meta-data value (the union) rather than flows matching all values
// (the intersection): multistage anomalies such as the Sasser worm have
// flow-disjoint meta-data, for which the intersection is empty while the
// union covers every stage. Both strategies are provided; Intersection
// exists as the DoWitcher-style comparison baseline (§IV).
//
// Ordering guarantee: Filter returns the matching flows in input order,
// and FilterParallel chunks the scan across workers but concatenates
// the per-chunk output in range order, so both are byte-identical for
// every worker count — the property FuzzPrefilterParity pins down.
package prefilter

import (
	"runtime"
	"slices"
	"sync"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
)

// Strategy selects flows given meta-data.
type Strategy interface {
	// Match reports whether rec belongs to the suspicious set under m.
	Match(m detector.MetaData, rec *flow.Record) bool
	// Name identifies the strategy.
	Name() string
}

// Union keeps flows matching at least one meta-data value — the paper's
// choice.
type Union struct{}

// Match implements Strategy.
func (Union) Match(m detector.MetaData, rec *flow.Record) bool {
	return m.MatchesFlow(rec)
}

// Name implements Strategy.
func (Union) Name() string { return "union" }

// Intersection keeps flows matching a meta-data value in every annotated
// feature — the baseline the paper shows can miss anomalies entirely.
type Intersection struct{}

// Match implements Strategy.
func (Intersection) Match(m detector.MetaData, rec *flow.Record) bool {
	return m.MatchesFlowAll(rec)
}

// Name implements Strategy.
func (Intersection) Name() string { return "intersection" }

// scan is the single match traversal every Filter/Count variant funnels
// through: it walks recs, returns how many records strategy s selects
// and, when collect is set, the selected records themselves in input
// order (nil otherwise).
func scan(s Strategy, m detector.MetaData, recs []flow.Record, collect bool) ([]flow.Record, int) {
	var out []flow.Record
	n := 0
	for i := range recs {
		if s.Match(m, &recs[i]) {
			n++
			if collect {
				out = append(out, recs[i])
			}
		}
	}
	return out, n
}

// Filter returns the flows of recs selected by strategy s under
// meta-data m, preserving input order.
func Filter(s Strategy, m detector.MetaData, recs []flow.Record) []flow.Record {
	out, _ := scan(s, m, recs, true)
	return out
}

// Count returns how many flows of recs strategy s selects, without
// materializing them.
func Count(s Strategy, m detector.MetaData, recs []flow.Record) int {
	_, n := scan(s, m, recs, false)
	return n
}

// minParallelRecords is the input size below which the parallel variants
// fall back to the sequential scan: the chunk bookkeeping and goroutine
// fan-out cost more than they save on small inputs.
const minParallelRecords = 2048

// resolveWorkers maps the Config.Workers convention (0 = GOMAXPROCS,
// 1 = sequential) onto an effective chunk count for n records.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// FilterParallel is Filter over a chunked worker fan-out: recs is split
// into contiguous ranges matched concurrently, and the per-chunk
// selections are concatenated in range order, so the output is
// byte-identical to the sequential Filter. workers follows the
// Config.Workers convention (0 = GOMAXPROCS, <= 1 or small inputs run
// sequentially).
func FilterParallel(s Strategy, m detector.MetaData, recs []flow.Record, workers int) []flow.Record {
	workers = resolveWorkers(workers, len(recs))
	if workers <= 1 || len(recs) < minParallelRecords {
		return Filter(s, m, recs)
	}
	parts := make([][]flow.Record, workers)
	chunk := (len(recs) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w*chunk < len(recs); w++ {
		part := recs[w*chunk : min((w+1)*chunk, len(recs))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = Filter(s, m, part)
		}()
	}
	wg.Wait()
	return slices.Concat(parts...)
}
