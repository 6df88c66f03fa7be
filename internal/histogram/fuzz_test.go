package histogram

import (
	"math"
	"slices"
	"testing"
)

// FuzzValueTableParity feeds arbitrary op programs to the
// table-vs-map differential harness (see runParityProgram) over
// single-clone sets: adds with clustered and wide values, zero-count
// adds, merges between tables of mismatched occupancy, snapshot merges,
// resets, and snapshot/restore round trips. Any divergence between the
// arena-backed valueTable and the map reference model — in snapshots,
// totals, per-bin counts, or per-bin values — is a crash, so the fuzzer
// searches directly for violations of the determinism contract.
func FuzzValueTableParity(f *testing.F) {
	addParitySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { runParityProgram(t, data, 1) })
}

// FuzzCloneSetParity is the same harness over three-clone sets, each
// clone checked against its own independent single-clone map model:
// deriving every clone's bins and per-bin values from one shared value
// table must be indistinguishable from keeping a table per clone.
func FuzzCloneSetParity(f *testing.F) {
	addParitySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { runParityProgram(t, data, 3) })
}

// addParitySeeds adds the in-code seed programs both parity targets
// share (each also has a checked-in corpus under testdata/fuzz).
func addParitySeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	// A merge-heavy program: op%5==3 merges, alternating targets.
	f.Add([]byte{3, 19, 3, 19, 0, 7, 1, 16, 2, 40, 41, 42, 3, 19, 3})
	// Reset/restore churn with interleaved adds.
	f.Add([]byte{4, 0, 0, 5, 2, 4, 3, 1, 9, 3, 4, 6, 20, 4, 3, 4, 0, 0, 3})
}

// klPlain is KL as it was before the log memo: the reference FuzzKLExact
// holds KL to, bit for bit.
func klPlain(p, q []uint64) float64 {
	k := float64(len(p))
	var np, nq float64
	for i := range p {
		np += float64(p[i])
		nq += float64(q[i])
	}
	np += smoothingAlpha * k
	nq += smoothingAlpha * k
	var d float64
	for i := range p {
		pi := (float64(p[i]) + smoothingAlpha) / np
		qi := (float64(q[i]) + smoothingAlpha) / nq
		d += pi * math.Log2(pi/qi)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// fuzzCounts fills a k-bin count vector. Each bin's shape byte picks its
// magnitude — zero, a count just below or above klMemoBound, a count far
// past it, or a count near 2^64 — and seed's splitmix64 stream the rest.
func fuzzCounts(k int, seed uint64, shape []byte) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		seed += 0x9e3779b97f4a7c15
		r := seed
		r = (r ^ r>>30) * 0xbf58476d1ce4e5b9
		r = (r ^ r>>27) * 0x94d049bb133111eb
		r ^= r >> 31
		var b byte
		if len(shape) > 0 {
			b = shape[i%len(shape)]
		}
		switch b % 5 {
		case 0:
			out[i] = 0
		case 1:
			out[i] = r % klMemoBound
		case 2:
			out[i] = klMemoBound - 2 + r%4
		case 3:
			out[i] = r % (1 << 20)
		default:
			out[i] = r >> (r & 7)
		}
	}
	return out
}

// FuzzKLExact holds the memoized KL, and the KL series the anomalous-bin
// identification records with it, bit-identical to the plain loop over
// k in {2, 1000, 1024} and counts on both sides of the memo bound.
func FuzzKLExact(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(2), []byte{0, 1}, []byte{1, 0})
	f.Add(uint8(1), uint64(7), uint64(7), []byte{1, 2, 1, 1, 0}, []byte{1, 1, 2, 1, 3})
	f.Add(uint8(2), uint64(3), uint64(4), []byte{1}, []byte{1, 1, 1, 3})
	f.Add(uint8(2), uint64(5), uint64(6), []byte{2}, []byte{2, 0})
	f.Add(uint8(2), uint64(8), uint64(9), []byte{4, 1, 0}, []byte{1, 4})
	f.Add(uint8(1), uint64(10), uint64(11), []byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, kSel uint8, pSeed, qSeed uint64, pShape, qShape []byte) {
		k := []int{2, 1000, 1024}[kSel%3]
		p, q := fuzzCounts(k, pSeed, pShape), fuzzCounts(k, qSeed, qShape)
		want := klPlain(p, q)
		if got := KL(p, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("KL = %v (%#x), plain loop %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
		}
		// With every memo claimed, KL runs without one.
		var held []*klMemo
		for m := claimKLMemo(); m != nil; m = claimKLMemo() {
			held = append(held, m)
		}
		got := KL(p, q)
		for _, m := range held {
			m.claimed.Store(false)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("KL without a memo = %v, plain loop %v", got, want)
		}
		// KLSeries[i] is the plain loop over p with its first i
		// identified bins aligned to q.
		id := IdentifyAnomalousBins(p, q, 0, 0, 8)
		if len(id.KLSeries) != len(id.Bins)+1 {
			t.Fatalf("identification %v: series and bins disagree in length", id)
		}
		work := slices.Clone(p)
		for i, kl := range id.KLSeries {
			if i > 0 {
				work[id.Bins[i-1]] = q[id.Bins[i-1]]
			}
			if want := klPlain(work, q); math.Float64bits(kl) != math.Float64bits(want) {
				t.Fatalf("KLSeries[%d] = %v, plain loop %v", i, kl, want)
			}
		}
	})
}
