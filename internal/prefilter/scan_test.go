package prefilter

import (
	"math/rand"
	"reflect"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

// reference applies strategy s's predicate — detector.MetaData's
// MatchesFlow for the union, MatchesFlowAll for the intersection — to
// recs one record at a time: the paper's definition, independent of the
// columnar scan every entry point runs.
func reference(s Strategy, m detector.MetaData, recs []flow.Record) []flow.Record {
	match := m.MatchesFlow
	if _, all := s.(Intersection); all {
		match = m.MatchesFlowAll
	}
	var out []flow.Record
	for i := range recs {
		if match(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

// randomMeta draws a meta-data annotation from the records themselves
// (so some rows match) plus a few absent values (so some do not).
func randomMeta(rng *rand.Rand, recs []flow.Record) detector.MetaData {
	m := detector.NewMetaData()
	for _, k := range flow.AllFeatures {
		if rng.Intn(3) == 0 {
			continue // leave some features unannotated
		}
		for j := 0; j < 1+rng.Intn(4); j++ {
			m.Add(k, recs[rng.Intn(len(recs))].Feature(k))
		}
		if rng.Intn(2) == 0 {
			m.Add(k, uint64(1<<40)+uint64(rng.Intn(1000))) // matches nothing
		}
	}
	return m
}

// TestFilterBufferMatchesFilter is the prefilter half of the AoS/SoA
// differential harness: over seeded tracegen traffic and randomized
// meta-data, every entry point — the columnar FilterBufferParallel for
// every worker count, and the row-form adapters FilterParallel and
// Count — selects exactly the records (values and order) the
// record-by-record reference predicate does.
func TestFilterBufferMatchesFilter(t *testing.T) {
	d := tracegen.SasserScenario(1, 2500)
	recs := d.Flows
	buf := flow.BufferOf(recs)
	rng := rand.New(rand.NewSource(11))

	metas := []detector.MetaData{sasserMeta(d), detector.NewMetaData()}
	for i := 0; i < 8; i++ {
		metas = append(metas, randomMeta(rng, recs))
	}
	for mi, m := range metas {
		for _, s := range []Strategy{Union{}, Intersection{}} {
			want := reference(s, m, recs)
			if n := Count(s, m, recs); n != len(want) {
				t.Fatalf("meta %d %s: Count %d, want %d", mi, s.Name(), n, len(want))
			}
			for _, workers := range []int{1, 2, 4, 8} {
				if got := FilterBufferParallel(s, m, &buf, workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("meta %d %s workers=%d: buffer scan selected %d records, the predicate %d",
						mi, s.Name(), workers, len(got), len(want))
				}
				if got := FilterParallel(s, m, recs, workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("meta %d %s workers=%d: FilterParallel selected %d records, the predicate %d",
						mi, s.Name(), workers, len(got), len(want))
				}
			}
		}
	}
}

// TestFilterBufferEmpty: the no-match and no-row cases return nil, the
// shape of the reference's append-to-nil.
func TestFilterBufferEmpty(t *testing.T) {
	var empty flow.Buffer
	if got := FilterBufferParallel(Union{}, detector.NewMetaData(), &empty, 1); got != nil {
		t.Fatalf("empty buffer filtered to %v, want nil", got)
	}
	buf := flow.BufferOf([]flow.Record{{SrcAddr: 1}, {SrcAddr: 2}})
	if got := FilterBufferParallel(Union{}, detector.NewMetaData(), &buf, 4); got != nil {
		t.Fatalf("empty meta filtered to %v, want nil", got)
	}
	if got := FilterParallel(Intersection{}, detector.NewMetaData(), nil, 1); got != nil {
		t.Fatalf("no records filtered to %v, want nil", got)
	}
}
