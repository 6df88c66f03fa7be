package detector

import (
	"math"
	"slices"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
	"anomalyx/internal/stats"
)

// feedInterval feeds n flows with feature values drawn by gen, then closes
// the interval.
func feedInterval(d *Detector, n int, gen func(i int) uint64) Result {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i].SetFeature(d.Config().Feature, gen(i))
	}
	d.ObserveBatch(recs)
	return d.EndInterval()
}

// steadyGen returns a stable heavy-ish value mix driven by a deterministic
// RNG: 60% on 16 popular values, the rest uniform over 10k values.
func steadyGen(r *stats.Rand) func(i int) uint64 {
	return func(i int) uint64 {
		if r.Bernoulli(0.6) {
			return uint64(r.IntN(16))
		}
		return uint64(1000 + r.IntN(10000))
	}
}

func newTestDetector(t *testing.T, cfg Config) *Detector {
	t.Helper()
	cfg.Feature = flow.DstPort
	if cfg.Bins == 0 {
		cfg.Bins = 256
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Feature: flow.FeatureKind(99)}); err == nil {
		t.Error("invalid feature accepted")
	}
	if _, err := New(Config{Feature: flow.SrcIP, Bins: 1}); err == nil {
		t.Error("1 bin accepted")
	}
	if _, err := New(Config{Feature: flow.SrcIP, Clones: 2, Votes: 3}); err == nil {
		t.Error("votes > clones accepted")
	}
	d, err := New(Config{Feature: flow.SrcIP})
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	if cfg.Bins != 1024 || cfg.Clones != 3 || cfg.Votes != 3 || cfg.Alpha != 3 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

// TestTrainingWindowValidation holds New to a history window that can
// hold the training samples: a longer training never ends, so the
// detector could never alarm, and a negative window panics at the
// first close.
//
// It holds Alpha to a positive finite multiplier too: a negative one
// makes the threshold negative, so nearly every interval alarms, and a
// NaN or infinite one never alarms. 0 still takes the default 3.
func TestTrainingWindowValidation(t *testing.T) {
	for _, tc := range []struct {
		train, window int
		alpha         float64
		ok            bool
	}{
		{0, 0, 0, true},       // defaults: 12 of 192
		{192, 0, 0, true},     // the whole default window
		{193, 0, 0, false},    // one interval more than the default window
		{200, 0, 0, false},    // -train 200 at the default window
		{8, 8, 0, true},       // equal
		{9, 8, 0, false},      // one more than the window
		{-1, 0, 0, false},     // negative training
		{0, -1, 0, false},     // negative window
		{1, 1 << 20, 0, true}, // a window far beyond training
		{0, 0, 2.5, true},     // an explicit alpha
		{0, 0, -3, false},     // negative alpha
		{0, 0, math.NaN(), false},
		{0, 0, math.Inf(1), false},
		{0, 0, math.Inf(-1), false},
	} {
		_, err := New(Config{Feature: flow.SrcIP, TrainIntervals: tc.train, HistoryWindow: tc.window, Alpha: tc.alpha})
		if (err == nil) != tc.ok {
			t.Errorf("TrainIntervals %d, HistoryWindow %d, Alpha %v: err = %v, want ok %v", tc.train, tc.window, tc.alpha, err, tc.ok)
		}
	}
}

func TestNoAlarmDuringTraining(t *testing.T) {
	d := newTestDetector(t, Config{TrainIntervals: 10})
	r := stats.NewRand(1)
	gen := steadyGen(r)
	for i := 0; i < 5; i++ {
		res := feedInterval(d, 5000, gen)
		if res.Alarm {
			t.Fatalf("alarm during training at interval %d", i)
		}
		if res.Trained {
			t.Fatalf("trained after %d intervals, need 10 diffs", i)
		}
	}
}

func TestStableTrafficNoAlarm(t *testing.T) {
	d := newTestDetector(t, Config{TrainIntervals: 8})
	r := stats.NewRand(2)
	gen := steadyGen(r)
	alarms := 0
	for i := 0; i < 40; i++ {
		if feedInterval(d, 5000, gen).Alarm {
			alarms++
		}
	}
	// A 3-sigma one-sided test fires on ~0.1% of normal intervals; a few
	// alarms can happen on 40 intervals x small samples, but not many.
	if alarms > 3 {
		t.Errorf("%d alarms on stable traffic", alarms)
	}
}

func TestDetectsInjectedSpike(t *testing.T) {
	d := newTestDetector(t, Config{TrainIntervals: 8})
	r := stats.NewRand(3)
	gen := steadyGen(r)
	for i := 0; i < 20; i++ {
		feedInterval(d, 5000, gen)
	}
	// Anomalous interval: 40% extra flows all on one port.
	res := feedInterval(d, 7000, func(i int) uint64 {
		if i < 2000 {
			return 7000
		}
		return gen(i)
	})
	if !res.Alarm {
		t.Fatal("spike not detected")
	}
	found := false
	for _, v := range res.Meta {
		if v == 7000 {
			found = true
		}
	}
	if !found {
		t.Errorf("value 7000 not in voted meta-data: %v", res.Meta)
	}
}

func TestMetaDataVotingFiltersCollisions(t *testing.T) {
	// With l = n = 3 the meta-data should contain few values beyond the
	// anomalous one: normal values must collide in all three clones to
	// leak (probability (b/k)^3 each).
	d := newTestDetector(t, Config{TrainIntervals: 8, Bins: 1024})
	r := stats.NewRand(4)
	gen := steadyGen(r)
	for i := 0; i < 20; i++ {
		feedInterval(d, 5000, gen)
	}
	res := feedInterval(d, 7500, func(i int) uint64 {
		if i < 2500 {
			return 31337
		}
		return gen(i)
	})
	if !res.Alarm {
		t.Fatal("spike not detected")
	}
	if len(res.Meta) > 25 {
		t.Errorf("voting leaked %d values; expected a handful", len(res.Meta))
	}
}

func TestNegativeSpikeDoesNotAlarm(t *testing.T) {
	// The threshold is one-sided: the *end* of an anomaly (KL drop)
	// must not raise an alarm.
	d := newTestDetector(t, Config{TrainIntervals: 8})
	r := stats.NewRand(5)
	gen := steadyGen(r)
	for i := 0; i < 20; i++ {
		feedInterval(d, 5000, gen)
	}
	// Interval with anomaly.
	res := feedInterval(d, 7000, func(i int) uint64 {
		if i < 2000 {
			return 4242
		}
		return gen(i)
	})
	if !res.Alarm {
		t.Fatal("anomaly start not detected")
	}
	// Anomaly ends: distribution reverts. The KL spike at the end shows
	// up as a *positive* KL vs the anomalous reference interval... the
	// first difference, however, is what matters. Feed two calm
	// intervals; by the second, differences are negative or small.
	_ = feedInterval(d, 5000, gen)
	res2 := feedInterval(d, 5000, gen)
	if res2.Alarm {
		t.Error("alarm after anomaly ended (negative spike should not fire)")
	}
}

func TestIdentificationReportedOnAlarm(t *testing.T) {
	d := newTestDetector(t, Config{TrainIntervals: 8})
	r := stats.NewRand(6)
	gen := steadyGen(r)
	for i := 0; i < 15; i++ {
		feedInterval(d, 4000, gen)
	}
	res := feedInterval(d, 6000, func(i int) uint64 {
		if i < 2000 {
			return 5555
		}
		return gen(i)
	})
	if !res.Alarm {
		t.Fatal("no alarm")
	}
	sawIdent := false
	for _, rep := range res.Clones {
		if rep.Alarm {
			if len(rep.Identification.Bins) == 0 {
				t.Error("alarming clone has no identified bins")
			}
			if len(rep.Identification.KLSeries) != len(rep.Identification.Bins)+1 {
				t.Error("KL series length mismatch")
			}
			if len(rep.Values) == 0 {
				t.Error("alarming clone has no candidate values")
			}
			sawIdent = true
		}
	}
	if !sawIdent {
		t.Fatal("alarm raised but no clone reports")
	}
}

func TestIntervalCounter(t *testing.T) {
	d := newTestDetector(t, Config{})
	r := stats.NewRand(7)
	gen := steadyGen(r)
	for i := 0; i < 5; i++ {
		res := feedInterval(d, 100, gen)
		if res.Interval != i {
			t.Fatalf("interval %d reported as %d", i, res.Interval)
		}
	}
}

func TestVotesOneIsUnion(t *testing.T) {
	// With l=1 every clone's candidate values enter the meta-data, so
	// meta size with l=1 >= meta size with l=n on the same traffic.
	run := func(votes int) int {
		cfg := Config{Feature: flow.DstPort, Bins: 256, Clones: 3, Votes: votes, TrainIntervals: 8}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRand(8)
		gen := steadyGen(r)
		for i := 0; i < 15; i++ {
			feedInterval(d, 4000, gen)
		}
		res := feedInterval(d, 6000, func(i int) uint64 {
			if i < 2000 {
				return 9999
			}
			return gen(i)
		})
		if !res.Alarm {
			t.Fatal("no alarm")
		}
		return len(res.Meta)
	}
	if run(1) < run(3) {
		t.Error("union voting produced fewer values than intersection")
	}
}

func TestMetaDataOps(t *testing.T) {
	m := NewMetaData()
	m.Add(flow.DstPort, 80)
	m.Add(flow.DstPort, 443)
	m.Add(flow.SrcIP, 12345)
	if !m.Contains(flow.DstPort, 80) || m.Contains(flow.DstPort, 81) {
		t.Error("Contains wrong")
	}
	if m.Count() != 3 {
		t.Errorf("Count = %d", m.Count())
	}
	vals := m.Values(flow.DstPort)
	if len(vals) != 2 || vals[0] != 80 || vals[1] != 443 {
		t.Errorf("Values = %v", vals)
	}

	other := NewMetaData()
	other.Add(flow.DstPort, 80) // duplicate
	other.Add(flow.Bytes, 16384)
	m.Merge(other)
	if m.Count() != 4 {
		t.Errorf("Count after merge = %d", m.Count())
	}

	clone := m.Clone()
	clone.Add(flow.Proto, 6)
	if m.Contains(flow.Proto, 6) {
		t.Error("Clone is not deep")
	}
}

func TestMetaDataFlowMatching(t *testing.T) {
	m := NewMetaData()
	m.Add(flow.DstPort, 445)
	m.Add(flow.Bytes, 16384)

	scan := flow.Record{DstPort: 445, Bytes: 48}
	download := flow.Record{DstPort: 5554, Bytes: 16384}
	benign := flow.Record{DstPort: 80, Bytes: 100}

	if !m.MatchesFlow(&scan) || !m.MatchesFlow(&download) {
		t.Error("union must match flows hitting any value")
	}
	if m.MatchesFlow(&benign) {
		t.Error("union matched an unrelated flow")
	}
	// Intersection semantics: no flow carries both values.
	if m.MatchesFlowAll(&scan) || m.MatchesFlowAll(&download) {
		t.Error("intersection should match nothing here")
	}
	both := flow.Record{DstPort: 445, Bytes: 16384}
	if !m.MatchesFlowAll(&both) {
		t.Error("intersection must match a flow hitting all values")
	}
	if NewMetaData().MatchesFlowAll(&benign) {
		t.Error("empty meta-data must match nothing under intersection")
	}
}

func TestBankUnionAcrossFeatures(t *testing.T) {
	bank, err := NewBank(BankConfig{
		Features: []flow.FeatureKind{flow.DstPort, flow.Packets},
		Template: Config{Bins: 256, Clones: 3, Votes: 2, TrainIntervals: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(9)
	feed := func(n int, anomalous bool) BankResult {
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = flow.Record{
				DstPort: uint16(r.IntN(2000)),
				Packets: uint32(1 + r.IntN(30)),
			}
			if anomalous && i < n/3 {
				recs[i].DstPort = 31337
				recs[i].Packets = 2
			}
		}
		bank.ObserveBatch(recs)
		return bank.EndInterval()
	}
	for i := 0; i < 20; i++ {
		if res := feed(4000, false); res.Alarm && i > 10 {
			t.Logf("benign alarm at %d (tolerated)", i)
		}
	}
	res := feed(6000, true)
	if !res.Alarm {
		t.Fatal("bank did not alarm on anomaly")
	}
	if len(res.PerFeature) != 2 {
		t.Fatalf("PerFeature size %d", len(res.PerFeature))
	}
	if !res.Meta.Contains(flow.DstPort, 31337) {
		t.Error("dstPort 31337 missing from bank meta-data")
	}
}

func TestBankDefaultFeatures(t *testing.T) {
	bank, err := NewBank(BankConfig{Template: Config{Bins: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(bank.Detectors()) != 5 {
		t.Fatalf("default bank has %d detectors, want 5", len(bank.Detectors()))
	}
	feats := map[flow.FeatureKind]bool{}
	for _, d := range bank.Detectors() {
		feats[d.Config().Feature] = true
	}
	for _, f := range flow.DetectorFeatures {
		if !feats[f] {
			t.Errorf("feature %v missing from default bank", f)
		}
	}
}

func TestBankPropagatesConfigError(t *testing.T) {
	_, err := NewBank(BankConfig{Template: Config{Clones: 2, Votes: 5}})
	if err == nil {
		t.Fatal("bad template accepted")
	}
}

// TestMetricDefaultIsKL: every clone's distance is the KL distance of
// the interval's bin counts against the previous interval's, the one
// measure of §II-C.
func TestMetricDefaultIsKL(t *testing.T) {
	d := newTestDetector(t, Config{Bins: 64})
	gen := steadyGen(stats.NewRand(5))
	var prev [][]uint64
	for i := 0; i < 3; i++ {
		recs := make([]flow.Record, 2000)
		ref := newCloneSet(d.Config())
		for j := range recs {
			v := gen(j)
			recs[j].SetFeature(d.Config().Feature, v)
			ref.Add(v)
		}
		counts := make([][]uint64, d.Config().Clones)
		for c := range counts {
			counts[c] = slices.Clone(ref.Counts(c))
		}
		d.ObserveBatch(recs)
		res := d.EndInterval()
		for c := range prev {
			if want := histogram.KL(counts[c], prev[c]); res.Clones[c].KL != want {
				t.Fatalf("interval %d clone %d: distance %v, KL %v", i, c, res.Clones[c].KL, want)
			}
		}
		prev = counts
	}
}
