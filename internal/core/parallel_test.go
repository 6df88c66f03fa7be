package core

import (
	"sync"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/stats"
)

// TestPipelineConcurrentObserveBatch drives ObserveBatch from many
// goroutines on one pipeline (run under -race) and checks the interval
// accounting survives the interleaving.
func TestPipelineConcurrentObserveBatch(t *testing.T) {
	p, err := New(Config{Detector: detector.Config{Bins: 128}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 8
	const perProducer = 1000
	r := stats.NewRand(17)
	batches := make([][]flow.Record, producers)
	for i := range batches {
		recs := make([]flow.Record, perProducer)
		for j := range recs {
			recs[j] = flow.Record{
				SrcAddr: uint32(r.IntN(10000)), DstAddr: uint32(r.IntN(1000)),
				SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1000)),
				Protocol: 6, Packets: 1, Bytes: 100,
			}
		}
		batches[i] = recs
	}

	var wg sync.WaitGroup
	wg.Add(producers)
	for i := 0; i < producers; i++ {
		go func(recs []flow.Record) {
			defer wg.Done()
			// Mix batch and single-record ingestion under contention.
			p.ObserveBatch(recs[:len(recs)/2])
			for _, rec := range recs[len(recs)/2:] {
				p.Observe(rec)
			}
		}(batches[i])
	}
	wg.Wait()

	rep, err := p.EndInterval()
	if err != nil {
		t.Fatal(err)
	}
	if want := producers * perProducer; rep.TotalFlows != want {
		t.Fatalf("TotalFlows = %d, want %d", rep.TotalFlows, want)
	}
}
