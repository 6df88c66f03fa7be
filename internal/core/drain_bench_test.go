package core

import "testing"

// BenchmarkDrainAbsorbCycle measures the agent→collector interval
// hand-off over a paper-default pipeline (5 features × 3 clones × 1024
// bins) holding a 5k-flow open interval: DrainOpenInterval copies the
// clone snapshots and the flow buffer, AbsorbOpenInterval merges them
// into the primary additively, and the primary closes the interval. One
// iteration is one interval hand-off. The sub-benchmark keeps the name
// earlier commits' bench artifacts carry, so benchstat still pairs them.
func BenchmarkDrainAbsorbCycle(b *testing.B) {
	b.Run("open-interval", func(b *testing.B) {
		var agent, primary *Pipeline
		for _, pp := range []**Pipeline{&agent, &primary} {
			p, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(p.Close)
			*pp = p
		}
		recs := snapRecords(0, 5000, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agent.ObserveBatch(recs)
			if err := primary.AbsorbOpenInterval(agent.DrainOpenInterval()); err != nil {
				b.Fatal(err)
			}
			if _, err := primary.EndInterval(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
