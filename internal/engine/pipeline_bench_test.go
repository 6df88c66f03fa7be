package engine

import (
	"fmt"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/stats"
)

// BenchmarkSubmitDuringClose measures the submit-stall across an
// interval cut: the time a producer spends blocked in SubmitBatch while
// the engine deals with a boundary crossing. The input buffer is 1, so
// the measured boundary-crossing submit cannot complete until the
// processing goroutine is past the cut — the whole inline detection run
// at depth 1, an O(1) state swap at depth 2.
//
// The unmeasured section between cuts retires the previous interval's
// report before the next measured submit, so each measurement starts
// from an idle engine. That makes this an enqueue-latency measure, not a
// throughput one — deliberately, because on a single-core host (like the
// CI container) the deferred close still consumes the same CPU; what
// pipelining buys is that it consumes it outside the producer's critical
// path, in the slack a paced real-world stream has between batches.
func BenchmarkSubmitDuringClose(b *testing.B) {
	const perInterval = 20000
	step := intervalLen.Milliseconds()
	base := int64(1_700_000_000_000)
	base -= base % step

	// Production-shaped detection state (the paper's 1024-bin default
	// would do; 8192 keeps the close well above scheduler jitter on small
	// CI machines): the interval close is dominated by per-clone KL and
	// the prev-counts rotate across bins × clones × features.
	pcfg := testConfig(1)
	pcfg.Detector.Bins = 8192

	for _, depth := range []int{1, 2} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			eng, err := New(Config{
				Pipeline: pcfg, IntervalLen: intervalLen,
				Buffer: 1, PipelineDepth: depth,
			})
			if err != nil {
				b.Fatal(err)
			}
			reports := eng.Reports()

			r := stats.NewRand(17)
			bulk := make([]flow.Record, perInterval)
			for i := range bulk {
				bulk[i] = flow.Record{
					SrcAddr: uint32(r.IntN(50000)), DstAddr: uint32(r.IntN(2000)),
					SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1500)),
					Protocol: 6, Packets: 1, Bytes: 100,
				}
			}
			probe := make([]flow.Record, 1)

			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				// Retire the previous cut's report. At depth 2 this blocks
				// until the close worker has finished the deferred close —
				// charging that work to the unmeasured slack, exactly where
				// a paced stream would absorb it.
				if n > 0 {
					<-reports
				}
				lo := base + int64(n)*step
				for i := range bulk {
					bulk[i].Start = lo + int64(i)%step
					bulk[i].End = bulk[i].Start
				}
				if _, err := eng.SubmitBatch(bulk); err != nil {
					b.Fatal(err)
				}
				// Quiesce: with Buffer 1 each sentinel submit blocks until
				// the previous message was consumed, so after four of them
				// the bulk ObserveBatch is done and the processor is idle
				// but for a couple of single-record appends — the measured
				// section starts with an (almost) idle engine.
				sentinel := bulk[:1]
				for i := 0; i < 4; i++ {
					if _, err := eng.SubmitBatch(sentinel); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				// The measured op: a submit whose record crosses the
				// boundary. It enqueues the cut marker and then its record,
				// and the record cannot be accepted until the processor is
				// past the cut — inline detection at depth 1, an O(1) drain
				// at depth 2 — so the call blocks for exactly the close
				// stall a producer sees.
				probe[0] = bulk[0]
				probe[0].Start = lo + step
				probe[0].End = probe[0].Start
				if _, err := eng.SubmitBatch(probe); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range reports {
				}
			}()
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
			<-done
		})
	}
}
