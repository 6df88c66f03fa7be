package experiments

import (
	"testing"

	"anomalyx/internal/stats"
)

func TestNeverUnderestimates(t *testing.T) {
	cm := newCountMin(256, 4, 1)
	truth := map[uint64]uint64{}
	r := stats.NewRand(1)
	for i := 0; i < 20000; i++ {
		v := uint64(r.IntN(2000))
		cm.add(v, 1)
		truth[v]++
	}
	for v, want := range truth {
		if got := cm.estimate(v); got < want {
			t.Fatalf("underestimate for %d: %d < %d", v, got, want)
		}
	}
}

func TestExactWhenSparse(t *testing.T) {
	// Few distinct values, wide sketch: estimates are exact.
	cm := newCountMin(4096, 4, 2)
	for v := uint64(0); v < 10; v++ {
		cm.add(v, (v+1)*100)
	}
	for v := uint64(0); v < 10; v++ {
		if got := cm.estimate(v); got != (v+1)*100 {
			t.Errorf("Estimate(%d) = %d, want %d", v, got, (v+1)*100)
		}
	}
}

func TestErrorBound(t *testing.T) {
	// Additive error should stay within ~2N/w for most queries.
	const w, d = 512, 5
	cm := newCountMin(w, d, 3)
	r := stats.NewRand(4)
	truth := map[uint64]uint64{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := uint64(r.IntN(50000))
		cm.add(v, 1)
		truth[v]++
	}
	bound := uint64(2 * n / w)
	bad := 0
	for v, want := range truth {
		if cm.estimate(v)-want > bound {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(truth)); frac > 0.05 {
		t.Errorf("%.2f%% of estimates exceed the 2N/w bound", 100*frac)
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { newCountMin(0, 1, 0) },
		func() { newCountMin(1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
