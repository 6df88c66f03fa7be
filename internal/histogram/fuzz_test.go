package histogram

import "testing"

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
