package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/stats"
)

// closeInterval produces one interval's flows: n benign plus nAnom flood
// flows toward one victim (the same mix synthInterval feeds).
func closeInterval(r *stats.Rand, n, nAnom int) []flow.Record {
	recs := make([]flow.Record, 0, n+nAnom)
	for i := 0; i < nAnom; i++ {
		recs = append(recs, flow.Record{
			SrcAddr: uint32(r.IntN(1 << 30)), DstAddr: 0x0a0a0a0a,
			SrcPort: uint16(1024 + r.IntN(60000)), DstPort: 7000,
			Protocol: 6, Packets: 1, Bytes: 40,
		})
	}
	for i := 0; i < n; i++ {
		recs = append(recs, flow.Record{
			SrcAddr: uint32(r.IntN(4096)), DstAddr: uint32(r.IntN(512)),
			SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1000)),
			Protocol: 6, Packets: uint32(1 + r.IntN(20)), Bytes: uint64(100 + r.IntN(5000)),
		})
	}
	return recs
}

// twoPhase closes p's interval the pipelined way: drain, then finish.
func twoPhase(p *Pipeline) (*Report, error) {
	pc, err := p.BeginClose()
	if err != nil {
		return nil, err
	}
	return pc.Finish()
}

// TestPendingCloseRecyclesState proves the freelist claim: from the
// second interval on, a close's drained containers are recycled ones —
// the clone sets cycling through BeginClose are pointer-identical to
// sets drained earlier, so steady-state closes allocate no new
// buffer/arena memory.
func TestPendingCloseRecyclesState(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(5)
	sets := make(map[any]int)
	cycle := func() {
		p.ObserveBatch(closeInterval(r, 500, 0))
		pc, err := p.BeginClose()
		if err != nil {
			t.Fatal(err)
		}
		sets[pc.state.sets[0][0]]++
		if _, err := pc.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	const cycles = 6
	for i := 0; i < cycles; i++ {
		cycle()
	}
	// Double-buffering: exactly two clone sets may exist no matter how
	// many intervals close, and each drains on alternate closes.
	if len(sets) != 2 {
		t.Fatalf("%d distinct drained clone sets after %d closes, want 2 (double-buffer recycling)", len(sets), cycles)
	}
	for h, n := range sets {
		if n != cycles/2 {
			t.Errorf("clone set %p drained %d times, want %d", h, n, cycles/2)
		}
	}
	if got := len(p.spares); got != 1 {
		t.Fatalf("freelist holds %d states after a finished close, want 1", got)
	}
}

// failOnceMiner fails its first Mine call and delegates from then on.
type failOnceMiner struct {
	mining.Miner
	failed bool
}

func (m *failOnceMiner) Mine(txs []itemset.Transaction, minsup int) (*mining.Result, error) {
	if !m.failed {
		m.failed = true
		return nil, errors.New("injected mining failure")
	}
	return m.Miner.Mine(txs, minsup)
}

// TestFailedMiningLeavesIntervalClean: detection history has rotated by
// the time mining can fail, so every close entry point must still leave
// its histograms, buffers and extraction scratch reset — every close
// after a failed one, a second flood extraction over the failed one's
// survivor indices included, reports exactly what a pipeline that never
// failed reports — and a failed Finish must still recycle its drained
// state (exactly two clone sets ever cycle through BeginClose). Both
// entries run over one and two partitions. The failing pipeline mines
// through an injected miner, the reference through the built-in path, so
// the comparison spans the extraction fork too.
func TestFailedMiningLeavesIntervalClean(t *testing.T) {
	cases := []struct {
		name  string
		close func(p *Pipeline, drained map[*histogram.CloneSet]int) (*Report, error)
		check func(t *testing.T, p *Pipeline, drained map[*histogram.CloneSet]int)
	}{
		{"EndInterval", func(p *Pipeline, _ map[*histogram.CloneSet]int) (*Report, error) { return p.EndInterval() }, nil},
		{"BeginClose+Finish", func(p *Pipeline, drained map[*histogram.CloneSet]int) (*Report, error) {
			pc, err := p.BeginClose()
			if err != nil {
				return nil, err
			}
			drained[pc.state.sets[0][0]]++
			return pc.Finish()
		}, func(t *testing.T, p *Pipeline, drained map[*histogram.CloneSet]int) {
			if len(drained) != 2 {
				t.Errorf("%d distinct clone sets drained, want 2 (failed finish must recycle)", len(drained))
			}
			if got := len(p.spares); got != 1 {
				t.Errorf("freelist holds %d states, want 1", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, parts := range []int{1, 2} {
				t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
					newPipeline := func(cfg Config) *Pipeline {
						p, err := NewPartitioned(cfg, parts)
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(p.Close)
						return p
					}
					cfg := testConfig()
					ref := newPipeline(cfg)
					cfg.Miner = &failOnceMiner{Miner: apriori.New()}
					p := newPipeline(cfg)
					drained := make(map[*histogram.CloneSet]int)
					r := stats.NewRand(9)
					// feed gives both pipelines the same interval and closes
					// the never-failing reference.
					feed := func(nAnom int) *Report {
						recs := closeInterval(r, 3000, nAnom)
						p.ObserveBatch(recs)
						want, err := ref.ProcessInterval(recs)
						if err != nil {
							t.Fatal(err)
						}
						return want
					}
					for i := 0; i < 10; i++ {
						feed(0)
						if _, err := tc.close(p, drained); err != nil {
							t.Fatal(err)
						}
					}
					feed(1500)
					if _, err := tc.close(p, drained); err == nil {
						t.Fatal("flood interval closed without surfacing the mining failure")
					}
					// More closes: a state the failed finish dropped instead
					// of recycling is replaced at the first and shows up at
					// the second; the flood among them extracts again,
					// through the scratch the failed close left behind.
					mined := false
					for i, nAnom := range []int{0, 1500, 0} {
						want := feed(nAnom)
						rep, err := tc.close(p, drained)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(rep, want) {
							t.Errorf("close %d after the failed one diverged from a pipeline that never failed\ngot:  %+v\nwant: %+v", i+1, rep, want)
						}
						mined = mined || rep.Mining != nil
					}
					if !mined {
						t.Error("no close after the failed one extracted; the scratch was never reused")
					}
					if tc.check != nil {
						tc.check(t, p, drained)
					}
				})
			}
		})
	}
}

// minAllocs returns the fewest heap allocations f made over tries
// calls, each counted on its own. An average over runs truncated to an
// integer (testing.AllocsPerRun) moves with one stray runtime
// allocation — a timer, GC bookkeeping — in any run; the minimum is the
// allocation count of f itself. Like AllocsPerRun it measures at
// GOMAXPROCS 1.
func minAllocs(tries int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	least := math.Inf(1)
	for i := 0; i < tries; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		least = min(least, float64(ms.Mallocs-before))
	}
	return least
}

// TestAlarmCloseAllocsIndependentOfSurvivors pins the extraction stage's
// allocation discipline: once a pipeline has closed one alarm of a given
// shape, closing another allocates the report — detection result, found
// item-sets, mining.BuildResult — and nothing proportional to the
// suspicious flows. Two pipelines see the same stream, the second with
// every record repeated four times and four times the minimum support:
// identical distributions, detection and item-sets, four times the
// survivors. Their steady-state alarm closes must allocate exactly
// alike, and far less than one allocation per survivor. Each pipeline's
// cycle is measured several times and the minima compared, so a stray
// runtime allocation cannot fail the exact comparison.
func TestAlarmCloseAllocsIndependentOfSurvivors(t *testing.T) {
	const minsup = 100
	var allocs, survivors [2]float64
	for k, repeat := range []int{1, 4} {
		cfg := testConfig()
		cfg.MinSupport, cfg.Workers = minsup*repeat, 1
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		r := stats.NewRand(9)
		interval := func(nAnom int) []flow.Record {
			base := closeInterval(r, 3000, nAnom)
			recs := make([]flow.Record, 0, len(base)*repeat)
			for _, rec := range base {
				for i := 0; i < repeat; i++ {
					recs = append(recs, rec)
				}
			}
			return recs
		}
		quiet, flood := interval(0), interval(1500)
		for i := 0; i < 10; i++ {
			if _, err := p.ProcessInterval(quiet); err != nil {
				t.Fatal(err)
			}
		}
		// One cycle is a flood close and three quiet ones, which keep the
		// detector's history quiet enough for the next flood to alarm with
		// the same meta-data — the same-shaped close — four times over.
		cycle := func() {
			rep, err := p.ProcessInterval(flood)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mining == nil || (survivors[k] != 0 && float64(rep.SuspiciousFlows) != survivors[k]) {
				t.Fatalf("flood interval extracted %d flows (mined: %v), want the first cycle's %v",
					rep.SuspiciousFlows, rep.Mining != nil, survivors[k])
			}
			survivors[k] = float64(rep.SuspiciousFlows)
			for i := 0; i < 3; i++ {
				if _, err := p.ProcessInterval(quiet); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle() // the first alarm of this shape grows the scratch
		// Three measured cycles, as many as AllocsPerRun(2, …) ran with its
		// warm-up: the detector's history, and with it the alarm, depends
		// on how many floods it has seen.
		allocs[k] = minAllocs(3, cycle)
	}
	if survivors[1] != 4*survivors[0] {
		t.Fatalf("survivors %v: the repeated stream must select four times as many", survivors)
	}
	t.Logf("allocs per cycle %v, survivors %v", allocs, survivors)
	if allocs[0] != allocs[1] {
		t.Errorf("steady-state allocations grew with the survivors: %v allocs for %v survivors", allocs, survivors)
	}
	if allocs[0] > survivors[0]/4 {
		t.Errorf("%v allocs per cycle for %v survivors: something allocates per survivor", allocs[0], survivors[0])
	}
}

// BenchmarkPipelinedClose compares the synchronous interval close with
// the drained two-phase one on identical 5k-flow intervals; allocs/op is
// the freelist's steady-state bar (no per-close buffer or arena growth).
func BenchmarkPipelinedClose(b *testing.B) {
	run := func(b *testing.B, close func(p *Pipeline) (*Report, error)) {
		p, err := New(testConfig())
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		r := stats.NewRand(7)
		recs := closeInterval(r, 5000, 0)
		// Warm both halves of the double buffer: the first close allocates
		// the replacement set, the second grows its buffer columns; from
		// then on every close recycles.
		for w := 0; w < 2; w++ {
			p.ObserveBatch(recs)
			if _, err := close(p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ObserveBatch(recs)
			if _, err := close(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sync", func(b *testing.B) {
		run(b, func(p *Pipeline) (*Report, error) { return p.EndInterval() })
	})
	b.Run("two-phase", func(b *testing.B) {
		run(b, twoPhase)
	})
}
