package detector

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
	"anomalyx/internal/stats"
)

// testBatch synthesizes one interval's worth of flows (deterministic in
// the rand seed) with enough records to cross minParallelBatch.
func testBatch(r *stats.Rand, n int) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr: uint32(r.IntN(50000)), DstAddr: uint32(r.IntN(2000)),
			SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1500)),
			Protocol: 6, Packets: uint32(1 + r.IntN(20)), Bytes: uint64(100 + r.IntN(2000)),
		}
	}
	return recs
}

// TestBankParallelMatchesSequential verifies the deterministic-merge
// contract: the parallel bank produces results identical to the
// sequential path on the same stream, including alarming intervals.
func TestBankParallelMatchesSequential(t *testing.T) {
	tmpl := Config{Bins: 256, TrainIntervals: 4, Seed: 11}
	seq, err := NewBank(BankConfig{Template: tmpl, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewBank(BankConfig{Template: tmpl, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}

	r := stats.NewRand(42)
	alarmed := false
	for interval := 0; interval < 10; interval++ {
		recs := testBatch(r, 4000)
		if interval == 9 {
			// A dstPort flood in the final interval forces alarms so the
			// identification + voting path is compared too.
			flood := make([]flow.Record, 2000)
			for i := range flood {
				flood[i] = flow.Record{
					SrcAddr: uint32(r.IntN(1 << 28)), DstAddr: 42,
					SrcPort: uint16(r.IntN(60000)), DstPort: 31337,
					Protocol: 6, Packets: 1, Bytes: 40,
				}
			}
			recs = append(recs, flood...)
		}
		for i := range recs {
			seq.ObserveBatch(recs[i : i+1])
		}
		par.ObserveBatch(recs)
		sres := seq.EndInterval()
		pres := par.EndInterval()
		if !reflect.DeepEqual(sres, pres) {
			t.Fatalf("interval %d: parallel result diverged\nseq: %+v\npar: %+v", interval, sres, pres)
		}
		if sres.Alarm {
			alarmed = true
		}
	}
	if !alarmed {
		t.Error("no interval alarmed; flood comparison not exercised")
	}
}

// TestBankConcurrentObserveBatch drives ObserveBatch from many
// goroutines at once (run under -race). Histogram updates commute, so
// the end state must match a single-goroutine feed of the same batches.
func TestBankConcurrentObserveBatch(t *testing.T) {
	tmpl := Config{Bins: 128, Seed: 7}
	ref, err := NewBank(BankConfig{Template: tmpl, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	conc, err := NewBank(BankConfig{Template: tmpl, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	const producers = 8
	batches := make([][]flow.Record, producers)
	r := stats.NewRand(3)
	for i := range batches {
		batches[i] = testBatch(r, 1000)
	}
	for _, recs := range batches {
		ref.ObserveBatch(recs)
	}

	var wg sync.WaitGroup
	wg.Add(producers)
	for i := 0; i < producers; i++ {
		go func(recs []flow.Record) {
			defer wg.Done()
			conc.ObserveBatch(recs)
		}(batches[i])
	}
	wg.Wait()

	if got, want := conc.EndInterval(), ref.EndInterval(); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent feed diverged from sequential feed\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestAbsorbGroupMatchesSingleBank: N banks fed partitions of a stream
// and folded by AbsorbGroup close exactly like one bank fed the whole
// stream (pooled and sequential alike), and the absorbed siblings are
// left empty.
func TestAbsorbGroupMatchesSingleBank(t *testing.T) {
	tmpl := Config{Bins: 128, TrainIntervals: 2, Seed: 11}
	for _, workers := range []int{1, 4} {
		whole, err := NewBank(BankConfig{Template: tmpl, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer whole.Close()
		parts := make([]*Bank, 3)
		for i := range parts {
			if parts[i], err = NewBank(BankConfig{Template: tmpl, Workers: workers}); err != nil {
				t.Fatal(err)
			}
			defer parts[i].Close()
		}
		r := stats.NewRand(17)
		for interval := 0; interval < 5; interval++ {
			for i := range parts {
				recs := testBatch(r, 600)
				whole.ObserveBatch(recs)
				parts[i].ObserveBatch(recs)
			}
			if err := parts[0].AbsorbGroup(parts[1:]); err != nil {
				t.Fatal(err)
			}
			if got, want := parts[0].EndInterval(), whole.EndInterval(); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d interval %d: absorbed group diverged\ngot:  %+v\nwant: %+v", workers, interval, got, want)
			}
			for _, set := range parts[1].LiveInterval() {
				if set.Total() != 0 {
					t.Fatalf("workers=%d interval %d: absorbed sibling still holds %d observations", workers, interval, set.Total())
				}
			}
		}
	}
}

// TestAbsorbRejectsIncompatible: AbsorbGroup runs the one compatibility
// check on every sibling before touching a histogram — mismatched banks are
// rejected and the primary's open interval is left as it was.
func TestAbsorbRejectsIncompatible(t *testing.T) {
	base := BankConfig{Template: Config{Bins: 64, Clones: 3, Seed: 5}, Workers: 1}
	mk := func(mut func(*BankConfig)) *Bank {
		cfg := base
		if mut != nil {
			mut(&cfg)
		}
		b, err := NewBank(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		return b
	}
	primary := mk(nil)
	primary.ObserveBatch(testBatch(stats.NewRand(1), 300))
	before := openInterval(primary)
	cases := map[string]*Bank{
		"self":           primary,
		"detector count": mk(func(c *BankConfig) { c.Features = []flow.FeatureKind{flow.SrcIP} }),
		"features": mk(func(c *BankConfig) {
			c.Features = []flow.FeatureKind{flow.DstIP, flow.SrcIP, flow.SrcPort, flow.DstPort, flow.Packets}
		}),
		"clones": mk(func(c *BankConfig) { c.Template.Clones, c.Template.Votes = 2, 2 }),
		"bins":   mk(func(c *BankConfig) { c.Template.Bins = 128 }),
		"seed":   mk(func(c *BankConfig) { c.Template.Seed = 6 }),
	}
	for name, other := range cases {
		if other != primary {
			other.ObserveBatch(testBatch(stats.NewRand(2), 300))
		}
		if err := primary.mergeable(other); err == nil {
			t.Errorf("%s: mergeable accepted", name)
		}
		if err := primary.AbsorbGroup([]*Bank{other}); err == nil {
			t.Errorf("%s: AbsorbGroup of one accepted", name)
		}
		// A compatible sibling ahead of the bad one must not be merged
		// either: the group is validated before any histogram moves.
		good := mk(nil)
		good.ObserveBatch(testBatch(stats.NewRand(3), 300))
		if err := primary.AbsorbGroup([]*Bank{good, other}); err == nil {
			t.Errorf("%s: AbsorbGroup accepted", name)
		}
		if !reflect.DeepEqual(openInterval(primary), before) {
			t.Fatalf("%s: rejected absorb modified the primary's open interval", name)
		}
	}
}

// openInterval snapshots b's open interval without draining it.
func openInterval(b *Bank) [][]histogram.Snapshot {
	var out [][]histogram.Snapshot
	for _, set := range b.LiveInterval() {
		out = append(out, set.Snapshots())
	}
	return out
}

// TestAbsorbGroupRejectsRepeatedSibling: a sibling listed twice is
// refused before any bank is locked — locking it twice would deadlock —
// and nothing moves. The call runs under a timeout so a deadlock fails
// the test instead of hanging it.
func TestAbsorbGroupRejectsRepeatedSibling(t *testing.T) {
	mk := func(seed uint64) *Bank {
		b, err := NewBank(BankConfig{Template: Config{Bins: 64, Clones: 3, Seed: 5}, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		b.ObserveBatch(testBatch(stats.NewRand(seed), 300))
		return b
	}
	primary, a, o := mk(1), mk(2), mk(3)
	beforePrimary, beforeO := openInterval(primary), openInterval(o)
	for _, group := range [][]*Bank{{o, o}, {o, a, o}} {
		done := make(chan error, 1)
		go func() { done <- primary.AbsorbGroup(group) }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("group of %d with a repeated sibling accepted", len(group))
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("AbsorbGroup with a repeated sibling did not return within 2 s (deadlock)")
		}
	}
	if !reflect.DeepEqual(openInterval(primary), beforePrimary) || !reflect.DeepEqual(openInterval(o), beforeO) {
		t.Fatal("rejected absorb moved histograms")
	}
}
