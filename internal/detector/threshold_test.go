package detector

import (
	"encoding/binary"
	"math"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/stats"
)

// FuzzSortedMAD drives a detector's first-difference window through an
// arbitrary program of pushes and trims and holds its threshold, read
// off the maintained sorted copy, bit-identical to alpha times
// stats.RobustSigma of the time-ordered window after every step. Ops
// push a value from a palette full of ties (±0, negatives, repeats), a
// small integer, or raw float64 bits, or trim the window to a length.
func FuzzSortedMAD(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7})
	f.Add(uint8(3), []byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 3, 1, 0, 1})
	f.Add(uint8(5), []byte{1, 200, 1, 3, 1, 3, 1, 250, 0, 3, 1, 7, 3, 2, 1, 9, 1, 9})
	f.Add(uint8(2), []byte{2, 0, 0, 0, 0, 0, 0, 0, 0x80, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add(uint8(8), []byte{0, 6, 0, 5, 0, 6, 0, 5, 0, 6, 0, 0, 0, 1, 3, 0, 0, 2})
	f.Fuzz(func(t *testing.T, alpha uint8, prog []byte) {
		cfg := Config{Feature: flow.SrcIP, Clones: 1, TrainIntervals: 1, HistoryWindow: 1 << 20,
			Alpha: 0.25 + float64(alpha)/8}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prog = prog[:min(len(prog), 1024)] // a long window only slows the O(n log n) reference
		palette := []float64{0, math.Copysign(0, -1), 1e-3, -1e-3, 0.5, -2, 1e-3, 7}
		for len(prog) >= 2 {
			op, arg := prog[0], prog[1]
			prog = prog[2:]
			switch op % 4 {
			case 0:
				d.pushDiff(palette[arg%8])
			case 1:
				d.pushDiff(float64(int8(arg)) / 16)
			case 2:
				if len(prog) < 8 {
					return
				}
				d.pushDiff(math.Float64frombits(binary.LittleEndian.Uint64(prog)) * float64(arg))
				prog = prog[8:]
			default:
				d.trimDiffs(int(arg % 16))
			}
			if len(d.sorted) != len(d.diffs) {
				t.Fatalf("sorted copy holds %d samples, window %d", len(d.sorted), len(d.diffs))
			}
			got, trained := d.Threshold()
			if !trained {
				continue
			}
			want := cfg.Alpha * stats.RobustSigma(d.diffs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window %v: threshold %v (%#x), RobustSigma gives %v (%#x)",
					d.diffs, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
