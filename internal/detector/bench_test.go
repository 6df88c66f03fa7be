package detector

import (
	"fmt"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

// benchIntervals generates n quiet tracegen intervals of ~6 000 flows —
// the benchmark harness's interval size.
func benchIntervals(n int) [][]flow.Record {
	cfg := tracegen.DefaultConfig()
	cfg.Intervals, cfg.BaseFlows = n, 6000
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
