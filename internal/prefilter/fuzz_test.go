package prefilter

import (
	"reflect"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
)

// fuzzRecords decodes data into a low-cardinality record set, tiled past
// the parallel threshold so the chunked scan actually runs: 7 bytes per
// base record, repeated with a deterministic per-tile perturbation. The
// same bytes always yield the same records.
func fuzzRecords(data []byte) []flow.Record {
	var base []flow.Record
	for len(data) >= 7 {
		b := data[:7]
		data = data[7:]
		base = append(base, flow.Record{
			SrcAddr: uint32(b[0] % 16), DstAddr: uint32(b[1] % 8),
			SrcPort: uint16(b[2] % 32), DstPort: uint16(b[3] % 8),
			Protocol: b[4] % 4,
			Packets:  uint32(b[5]%4) + 1, Bytes: uint64(b[6]%8+1) * 40,
		})
	}
	if len(base) == 0 {
		base = []flow.Record{{}}
	}
	recs := make([]flow.Record, minParallelRecords*5/2)
	for i := range recs {
		recs[i] = base[i%len(base)]
		recs[i].SrcAddr = (recs[i].SrcAddr + uint32(i/len(base))%5) % 16
		recs[i].Start = int64(i)
	}
	return recs
}

// fuzzMeta decodes up to six (feature, value) annotations from data,
// over the same small value domain fuzzRecords generates.
func fuzzMeta(data []byte) detector.MetaData {
	m := detector.NewMetaData()
	for i := 0; i+1 < len(data) && i < 12; i += 2 {
		kind := flow.FeatureKind(data[i] % uint8(flow.NumFeatures))
		m.Add(kind, uint64(data[i+1]%32))
	}
	return m
}

// FuzzPrefilterParity fuzzes the §II-A invariants at once: for both
// strategies and any worker count, every entry point — FilterParallel
// and SelectBuffer's row indices (into fresh or recycled index memory) —
// selects exactly the records the MetaData predicate
// selects record by record, and the union selection contains the
// intersection selection pointwise (a flow matching every annotated
// feature necessarily matches at least one).
func FuzzPrefilterParity(f *testing.F) {
	f.Add([]byte{}, byte(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, byte(4))
	f.Add([]byte{0, 7, 1, 13, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 6, 1, 80, 3, 1, 2, 200}, byte(8))
	f.Fuzz(func(t *testing.T, data []byte, workers byte) {
		w := int(workers % 16)
		var metaBytes, recBytes []byte
		if len(data) > 8 {
			metaBytes, recBytes = data[:8], data[8:]
		} else {
			metaBytes = data
		}
		m := fuzzMeta(metaBytes)
		recs := fuzzRecords(recBytes)
		buf := flow.BufferOf(recs)
		var rows []int32

		for _, s := range []Strategy{Union{}, Intersection{}} {
			want := reference(s, m, recs)
			if got := FilterParallel(s, m, recs, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: FilterParallel diverged: %d vs %d records",
					s.Name(), w, len(got), len(want))
			}
			for _, workers := range []int{1, w} {
				// rows carries the previous scan's indices back in.
				rows = SelectBuffer(s, m, &buf, workers, rows)
				if got := gather(&buf, rows); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s workers=%d: SelectBuffer named %d rows, the predicate selected %d",
						s.Name(), workers, len(rows), len(want))
				}
			}
		}

		// Union ⊇ Intersection, pointwise: the intersection predicate
		// implies the union predicate on every record.
		for i := range recs {
			if m.MatchesFlowAll(&recs[i]) && !m.MatchesFlow(&recs[i]) {
				t.Fatalf("record %d in intersection but not union: %+v", i, recs[i])
			}
		}
	})
}
