package tracegen

import (
	"sort"

	"anomalyx/internal/flow"
	"anomalyx/internal/stats"
)

// Generator produces the flows of a synthetic trace interval by interval.
// Interval generation is a pure function of (Config, interval index):
// intervals can be generated in any order, repeatedly, or in parallel, and
// always yield the same records — the property that makes the two-week
// experiments reproducible without materializing ~10^8 flows on disk.
type Generator struct {
	cfg    Config
	base   *baseline
	events []*eventState
	byIdx  map[int][]*eventState // interval -> active events
	anom   []int                 // sorted anomalous interval indices
}

// New builds a generator for cfg. The schedule in cfg.Events is
// materialized (endpoints and signatures fixed) at this point.
func New(cfg Config) *Generator {
	g := &Generator{cfg: cfg, base: newBaseline(&cfg), byIdx: map[int][]*eventState{}}
	for _, ev := range cfg.Events {
		st := materialize(&cfg, ev)
		g.events = append(g.events, st)
		for i := ev.Start; i <= ev.End && i < cfg.Intervals; i++ {
			g.byIdx[i] = append(g.byIdx[i], st)
		}
	}
	for idx := range g.byIdx {
		g.anom = append(g.anom, idx)
	}
	sort.Ints(g.anom)
	return g
}

// Config returns the generator's configuration.
func (g *Generator) Config() *Config { return &g.cfg }

// Interval generates all flows of interval idx (benign plus injected),
// sorted by start time.
func (g *Generator) Interval(idx int) []flow.Record {
	r := g.intervalRand(idx)
	startMs := g.cfg.IntervalStart(idx)
	endMs := startMs + g.cfg.IntervalLen.Milliseconds()

	n := g.base.count(idx, r)
	recs := make([]flow.Record, 0, n+n/4)
	for i := 0; i < n; i++ {
		recs = append(recs, g.base.flow(r, startMs, endMs))
	}
	for _, ev := range g.byIdx[idx] {
		er := stats.NewRand(g.cfg.Seed ^ 0xabcd0feed ^ uint64(ev.ID)<<32 ^ uint64(idx))
		recs = ev.inject(&g.cfg, idx, er, recs)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	return recs
}

// intervalRand derives the deterministic per-interval stream.
func (g *Generator) intervalRand(idx int) *stats.Rand {
	return stats.NewRand(g.cfg.Seed ^ (uint64(idx)+1)*0xd1342543de82ef95)
}

// GroundTruth returns the materialized events with their signatures.
func (g *Generator) GroundTruth() []GroundTruthEvent {
	out := make([]GroundTruthEvent, len(g.events))
	for i, st := range g.events {
		out[i] = st.GroundTruthEvent
	}
	return out
}

// AnomalousIntervals returns the sorted indices of intervals containing at
// least one active event (the paper's 31 labeled intervals).
func (g *Generator) AnomalousIntervals() []int {
	out := make([]int, len(g.anom))
	copy(out, g.anom)
	return out
}

// IsAnomalous reports whether interval idx contains an active event.
func (g *Generator) IsAnomalous(idx int) bool { return len(g.byIdx[idx]) > 0 }

// EventsAt returns the ground truth of the events active in interval idx.
func (g *Generator) EventsAt(idx int) []GroundTruthEvent {
	states := g.byIdx[idx]
	out := make([]GroundTruthEvent, len(states))
	for i, st := range states {
		out[i] = st.GroundTruthEvent
	}
	return out
}
