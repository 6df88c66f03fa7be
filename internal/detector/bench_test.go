package detector

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

// benchIntervals generates n quiet tracegen intervals of ~6 000 flows —
// the benchmark harness's interval size.
func benchIntervals(n int) [][]flow.Record { return quietIntervals(n, 6000) }

// quietIntervals generates n tracegen intervals of about flows flows
// each, with no scheduled events and no diurnal swing.
func quietIntervals(n, flows int) [][]flow.Record {
	cfg := tracegen.DefaultConfig()
	cfg.Intervals, cfg.BaseFlows = n, flows
	cfg.DiurnalAmplitude, cfg.Events = 0, nil
	gen := tracegen.New(cfg)
	out := make([][]flow.Record, n)
	for i := range out {
		out[i] = gen.Interval(i)
	}
	return out
}

// observeInterval feeds recs in the engine's 512-record batches.
func observeInterval(b *Bank, recs []flow.Record) {
	for off := 0; off < len(recs); off += 512 {
		b.ObserveBatch(recs[off:min(off+512, len(recs))])
	}
}

// BenchmarkBankObserveBatch drives whole intervals through the default
// five-feature, three-clone bank — ObserveBatch in 512-record batches,
// then EndInterval — and reports the cost per record (ingest plus the
// close's share, including deriving the clones' bins). allocs/op is the
// interval close's result; ingest itself allocates nothing once the
// value tables are warm (TestObserveBatchSteadyStateAllocs).
func BenchmarkBankObserveBatch(b *testing.B) {
	ivs := benchIntervals(8)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			bank, err := NewBank(BankConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer bank.Close()
			for _, recs := range ivs { // warm the arenas
				observeInterval(bank, recs)
				bank.EndInterval()
			}
			records := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs := ivs[i%len(ivs)]
				observeInterval(bank, recs)
				bank.EndInterval()
				records += len(recs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		})
	}
}

// trainedBank returns a bank built from cfg that has closed ivs, over
// and over, until its first-difference window (HistoryWindow intervals
// x clones) is full.
func trainedBank(tb testing.TB, cfg BankConfig, ivs [][]flow.Record) *Bank {
	bank, err := NewBank(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w := bank.Detectors()[0].Config().HistoryWindow
	for i := 0; i < w+2; i++ {
		observeInterval(bank, ivs[i%len(ivs)])
		bank.EndInterval()
	}
	return bank
}

// BenchmarkQuietClose times Bank.EndInterval alone — deriving the clone
// bins, the KL distances, the MAD threshold and the history rotation —
// on a default bank trained past its full 576-sample window, with the
// interval's ingest outside the timer. BenchmarkBankObserveBatch mixes
// the two.
func BenchmarkQuietClose(b *testing.B) {
	ivs := benchIntervals(8)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			bank := trainedBank(b, BankConfig{Workers: workers}, ivs)
			defer bank.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				observeInterval(bank, ivs[i%len(ivs)])
				b.StartTimer()
				if res := bank.EndInterval(); res.Alarm {
					b.Fatalf("interval %d alarmed on quiet traffic", res.Interval)
				}
			}
		})
	}
}

// TestQuietCloseAllocs pins the quiet close's garbage: once a bank has
// filled its first-difference window, a close without an alarm
// allocates only its result — per-feature results, per-clone reports,
// the empty meta-data — and nothing that grows with the window. Each
// count is the least over three windows of eight closes, so a stray
// runtime allocation in one window does not flake the pin, and is taken
// at HistoryWindow 192 (the default) and 1920, whose bytes must match.
func TestQuietCloseAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ivs := quietIntervals(8, 300)
	var bytes [2]float64
	for k, window := range []int{192, 1920} {
		bank := trainedBank(t, BankConfig{Workers: 1, Template: Config{HistoryWindow: window}}, ivs)
		defer bank.Close()
		allocs := math.Inf(1)
		bytes[k] = math.Inf(1)
		var ms runtime.MemStats
		for range 3 {
			var mallocs, total uint64
			for i := range len(ivs) {
				observeInterval(bank, ivs[i])
				runtime.ReadMemStats(&ms)
				m0, b0 := ms.Mallocs, ms.TotalAlloc
				if res := bank.EndInterval(); res.Alarm {
					t.Fatalf("window %d: interval %d alarmed on quiet traffic", window, res.Interval)
				}
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - m0
				total += ms.TotalAlloc - b0
			}
			allocs = min(allocs, float64(mallocs)/float64(len(ivs)))
			bytes[k] = min(bytes[k], float64(total)/float64(len(ivs)))
		}
		t.Logf("HistoryWindow %d: %.0f allocs, %.0f B per quiet close", window, allocs, bytes[k])
		if allocs > 17 {
			t.Errorf("HistoryWindow %d: a quiet close allocated %.0f times, want at most 17", window, allocs)
		}
	}
	if bytes[0] != bytes[1] {
		t.Errorf("a quiet close allocated %v B at HistoryWindow 192 and 1920: it grows with the window", bytes)
	}
}

// TestObserveBatchSteadyStateAllocs: once an interval has warmed the
// value tables, a sequential bank ingests an interval of the same
// traffic without allocating.
func TestObserveBatchSteadyStateAllocs(t *testing.T) {
	recs := benchIntervals(1)[0]
	bank, err := NewBank(BankConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	observeInterval(bank, recs)
	if allocs := testing.AllocsPerRun(3, func() { observeInterval(bank, recs) }); allocs != 0 {
		t.Fatalf("steady-state ingest of %d records allocated %.0f times", len(recs), allocs)
	}
}
