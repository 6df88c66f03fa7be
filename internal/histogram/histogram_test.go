package histogram

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"anomalyx/internal/hash"
)

// testFns returns n clone hash functions.
func testFns(n int) []hash.Func {
	fns := make([]hash.Func, n)
	for c := range fns {
		fns[c] = hash.New(uint64(c) + 1)
	}
	return fns
}

func TestAddAndCount(t *testing.T) {
	fns := testFns(3)
	s := NewCloneSet(16, fns)
	s.Add(5)
	s.Add(5)
	s.AddN(9, 3)
	if s.Total() != 5 {
		t.Errorf("Total = %d, want 5", s.Total())
	}
	for c, fn := range fns {
		if got := s.Counts(c)[fn.Bin(5, 16)]; got < 2 {
			t.Errorf("clone %d: bin of 5 has %d, want >= 2", c, got)
		}
		var sum uint64
		for _, n := range s.Counts(c) {
			sum += n
		}
		if sum != 5 {
			t.Errorf("clone %d: bin sum %d, want 5", c, sum)
		}
	}
	s.Add(9) // counts are re-derived after a change
	if s.Total() != 6 || s.Counts(1)[fns[1].Bin(9, 16)] < 4 {
		t.Errorf("after another add: total %d, bin of 9 %d", s.Total(), s.Counts(1)[fns[1].Bin(9, 16)])
	}
}

func TestValueTracking(t *testing.T) {
	fn := hash.New(1)
	h := New(8, fn, true)
	h.Add(100)
	h.Add(100)
	h.Add(200)
	vals := h.Snapshot().Values[fn.Bin(100, 8)]
	if !slices.Contains(vals, ValueCount{Value: 100, Count: 2}) {
		t.Errorf("value 100 not tracked in its bin; got %v", vals)
	}
}

func TestValueTrackingDisabled(t *testing.T) {
	h := New(8, hash.New(1), false)
	h.Add(100)
	s := h.Snapshot()
	if s.Values != nil {
		t.Error("untracked histogram snapshot carries values")
	}
	if s.Total != 1 {
		t.Errorf("untracked histogram total %d, want 1", s.Total)
	}
}

func TestReset(t *testing.T) {
	s := NewCloneSet(8, testFns(2))
	s.Add(1)
	s.Add(2)
	s.Reset()
	if s.Total() != 0 {
		t.Errorf("Total after reset = %d", s.Total())
	}
	for c, hs := range s.Snapshots() {
		for b := range hs.Counts {
			if hs.Counts[b] != 0 || s.Counts(c)[b] != 0 {
				t.Errorf("clone %d bin %d non-zero after reset", c, b)
			}
			if hs.Values[b] != nil {
				t.Errorf("clone %d bin %d still has values after reset", c, b)
			}
		}
	}
	h := New(8, hash.New(1), true)
	h.Add(3)
	h.Reset()
	if h.Snapshot().Total != 0 {
		t.Error("histogram not empty after reset")
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, hash.New(1), false)
}

func TestKLIdentityIsZero(t *testing.T) {
	p := []uint64{10, 20, 0, 5}
	if d := KL(p, p); d != 0 {
		t.Errorf("KL(p,p) = %v, want 0", d)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	f := func(a, b [8]uint16) bool {
		p := make([]uint64, 8)
		q := make([]uint64, 8)
		for i := 0; i < 8; i++ {
			p[i] = uint64(a[i])
			q[i] = uint64(b[i])
		}
		return KL(p, q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKLDetectsShift(t *testing.T) {
	// Moving mass into one bin must increase the distance.
	base := []uint64{100, 100, 100, 100}
	spiked := []uint64{100, 100, 100, 5000}
	mild := []uint64{110, 95, 100, 100}
	if KL(spiked, base) <= KL(mild, base) {
		t.Errorf("KL(spiked)=%v should exceed KL(mild)=%v",
			KL(spiked, base), KL(mild, base))
	}
}

func TestKLAsymmetric(t *testing.T) {
	p := []uint64{1000, 10, 10, 10}
	q := []uint64{10, 1000, 500, 10}
	if math.Abs(KL(p, q)-KL(q, p)) < 1e-12 {
		t.Error("KL should generally be asymmetric for these inputs")
	}
}

func TestKLEmptyReference(t *testing.T) {
	// Entirely new traffic in a bin empty in the reference must stay
	// finite (smoothing) but large-ish.
	p := []uint64{0, 0, 0, 10000}
	q := []uint64{2500, 2500, 2500, 2500}
	d := KL(p, q)
	if math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("KL not finite: %v", d)
	}
	if d <= 0 {
		t.Fatalf("KL = %v, want > 0", d)
	}
}

func TestKLScaleInvariance(t *testing.T) {
	// KL compares distributions: doubling all counts should barely move
	// the distance (smoothing introduces a tiny wobble).
	p := []uint64{100, 300, 50, 550}
	q := []uint64{200, 200, 200, 400}
	p2 := make([]uint64, 4)
	q2 := make([]uint64, 4)
	for i := range p {
		p2[i], q2[i] = 2*p[i], 2*q[i]
	}
	if math.Abs(KL(p, q)-KL(p2, q2)) > 0.01 {
		t.Errorf("KL not scale invariant: %v vs %v", KL(p, q), KL(p2, q2))
	}
}

func TestKLPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	KL([]uint64{1}, []uint64{1, 2})
}

func TestDistance(t *testing.T) {
	a := NewCloneSet(16, testFns(1))
	b := NewCloneSet(16, testFns(1))
	for v := uint64(0); v < 100; v++ {
		a.Add(v)
		b.Add(v)
	}
	if d := KL(a.Counts(0), b.Counts(0)); d != 0 {
		t.Errorf("identical histograms: distance %v", d)
	}
	a.AddN(7777, 1000)
	if d := KL(a.Counts(0), b.Counts(0)); d <= 0 {
		t.Errorf("spiked histogram: distance %v", d)
	}
}

func TestIdentifyConvergesOnSingleSpike(t *testing.T) {
	k := 64
	ref := make([]uint64, k)
	cur := make([]uint64, k)
	for i := 0; i < k; i++ {
		ref[i] = 100
		cur[i] = 100
	}
	cur[17] = 5000 // the anomaly

	id := IdentifyAnomalousBins(cur, ref, 0, 0.01, 0)
	if !id.Converged {
		t.Fatal("did not converge")
	}
	if len(id.Bins) != 1 || id.Bins[0] != 17 {
		t.Fatalf("identified bins %v, want [17]", id.Bins)
	}
	if len(id.KLSeries) != 2 {
		t.Fatalf("KL series %v, want length 2", id.KLSeries)
	}
	if id.KLSeries[1] >= id.KLSeries[0] {
		t.Error("KL did not decrease after removal")
	}
	if id.KLSeries[1] > 0.01 {
		t.Errorf("final KL %v above threshold", id.KLSeries[1])
	}
}

func TestIdentifyMultipleSpikesInOrder(t *testing.T) {
	k := 32
	ref := make([]uint64, k)
	cur := make([]uint64, k)
	for i := 0; i < k; i++ {
		ref[i] = 1000
		cur[i] = 1000
	}
	cur[3] = 9000  // largest difference
	cur[20] = 5000 // second

	id := IdentifyAnomalousBins(cur, ref, 0, 0.005, 0)
	if !id.Converged {
		t.Fatal("did not converge")
	}
	if len(id.Bins) < 2 {
		t.Fatalf("bins %v, want both spikes", id.Bins)
	}
	if id.Bins[0] != 3 || id.Bins[1] != 20 {
		t.Errorf("removal order %v, want [3 20 ...]", id.Bins)
	}
	// Fig. 5 shape: monotone decreasing KL series.
	for i := 1; i < len(id.KLSeries); i++ {
		if id.KLSeries[i] > id.KLSeries[i-1]+1e-12 {
			t.Errorf("KL series not decreasing at %d: %v", i, id.KLSeries)
		}
	}
}

func TestIdentifyDelegatesToKL(t *testing.T) {
	// The series is the KL distance before and after each removal.
	ref := []uint64{100, 100, 100, 100}
	cur := []uint64{100, 100, 100, 5000}
	id := IdentifyAnomalousBins(cur, ref, 0, 0.01, 0)
	if !id.Converged || len(id.Bins) != 1 || id.Bins[0] != 3 {
		t.Fatalf("identification %+v, want bin 3 converged", id)
	}
	if id.KLSeries[0] != KL(cur, ref) || id.KLSeries[1] != KL(ref, ref) {
		t.Errorf("series %v, want [KL(cur,ref) KL(ref,ref)]", id.KLSeries)
	}
}

func TestIdentifyNoAlarmNeedsNoRemoval(t *testing.T) {
	ref := []uint64{10, 10, 10, 10}
	cur := []uint64{11, 9, 10, 10}
	id := IdentifyAnomalousBins(cur, ref, 0, 10, 0)
	if !id.Converged || len(id.Bins) != 0 {
		t.Errorf("calm histogram: bins %v converged %v", id.Bins, id.Converged)
	}
}

func TestIdentifyRespectsMaxRounds(t *testing.T) {
	k := 16
	ref := make([]uint64, k)
	cur := make([]uint64, k)
	for i := 0; i < k; i++ {
		ref[i] = 10
		cur[i] = 10000 // everything is anomalous
	}
	id := IdentifyAnomalousBins(cur, ref, 0, 1e-9, 4)
	if len(id.Bins) > 4 {
		t.Errorf("removed %d bins, cap was 4", len(id.Bins))
	}
}

func TestIdentifyDoesNotMutateInput(t *testing.T) {
	ref := []uint64{10, 10, 10, 10}
	cur := []uint64{10, 10, 10, 10000}
	curCopy := []uint64{10, 10, 10, 10000}
	IdentifyAnomalousBins(cur, ref, 0, 0.001, 0)
	for i := range cur {
		if cur[i] != curCopy[i] {
			t.Fatal("input mutated")
		}
	}
}

func TestIdentifyIdenticalHistogramsStall(t *testing.T) {
	// klPrev very negative makes the alarm condition unsatisfiable, but
	// with zero differences everywhere the search must stop gracefully.
	ref := []uint64{5, 5, 5}
	cur := []uint64{5, 5, 5}
	id := IdentifyAnomalousBins(cur, ref, -100, 1, 0)
	if id.Converged {
		t.Error("cannot converge when threshold is unsatisfiable")
	}
	if len(id.Bins) != 0 {
		t.Errorf("no bins should be removed, got %v", id.Bins)
	}
}
