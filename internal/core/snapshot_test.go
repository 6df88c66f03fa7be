package core

import (
	"reflect"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
)

// snapRecords synthesizes one interval's records with a stable popular
// structure and an optional dstPort flood.
func snapRecords(interval, n int, flood bool) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr: uint32(i%89) + 1,
			DstAddr: uint32(i%71) + 1,
			SrcPort: uint16(i % 47),
			DstPort: uint16(i % 29),
			Packets: uint32(i%5) + 1,
			Bytes:   uint64(i%11)*40 + 40,
			Start:   int64(interval) * 1000,
		}
		if flood && i%2 == 0 {
			recs[i].DstAddr, recs[i].DstPort = 42, 31337
			recs[i].Packets, recs[i].Bytes = 1, 40
		}
	}
	return recs
}

func snapConfig() Config {
	return Config{Detector: detector.Config{Bins: 64, TrainIntervals: 3, Seed: 9}}
}

// TestPipelineSnapshotRestore: a restored pipeline carries the full
// detection history, so subsequent reports — including an alarming
// interval's extraction — match the original exactly. The snapshot is
// history only: the restored pipeline keeps the open interval it holds
// (here the same partial interval the original observed), and history
// lives in partition 0 alone, so a two-partition original restores into
// a one-partition pipeline.
func TestPipelineSnapshotRestore(t *testing.T) {
	orig, err := NewPartitioned(snapConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for i := 0; i < 6; i++ {
		if _, err := orig.ProcessInterval(snapRecords(i, 900, false)); err != nil {
			t.Fatal(err)
		}
	}
	partial := snapRecords(6, 900, false)[:400]
	orig.ObserveBatch(partial)

	s := orig.Snapshot()
	for i, ds := range s.Detectors {
		if ds.Clones != nil || ds.Interval != 6 {
			t.Fatalf("detector %d snapshot: %d clone histograms at interval %d; want history only at 6",
				i, len(ds.Clones), ds.Interval)
		}
	}
	restored, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	restored.ObserveBatch(partial)
	if err := restored.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), s) {
		t.Fatal("restored pipeline re-snapshots differently")
	}
	alarmed := false
	for i := 6; i < 10; i++ {
		rest := snapRecords(i, 900, i == 7)
		if i == 6 {
			rest = rest[400:]
		}
		orig.ObserveBatch(rest)
		restored.ObserveBatch(rest)
		want, err := orig.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		alarmed = alarmed || want.Alarm
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d diverged after restore:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if !alarmed {
		t.Fatal("post-restore intervals never alarmed; extraction not compared")
	}
}

// TestPipelineRestoreThenAbsorb: the collector's resume — a primary
// absorbs an agent's drained intervals, its history is snapshotted at a
// boundary and restored into a fresh pipeline, which goes on absorbing
// the agent's intervals — reproduces a direct run.
func TestPipelineRestoreThenAbsorb(t *testing.T) {
	const cut = 3 // intervals the first primary closes before the snapshot
	direct, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	agent, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	primary, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	resumed, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()

	for i := 0; i < 7; i++ {
		recs := snapRecords(i, 900, i == 5)
		direct.ObserveBatch(recs)
		agent.ObserveBatch(recs)
		if i == cut {
			if err := resumed.RestoreSnapshot(primary.Snapshot()); err != nil {
				t.Fatal(err)
			}
			primary = resumed
		}
		if err := primary.AbsorbOpenInterval(agent.DrainOpenInterval()); err != nil {
			t.Fatal(err)
		}
		want, err := direct.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		got, err := primary.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d: absorb after restore diverged from direct run:\n got %+v\nwant %+v",
				i, got, want)
		}
		if i == 5 && !want.Alarm {
			t.Fatal("the flood interval did not alarm; extraction not compared")
		}
	}
}

// TestPipelineDrainOpenInterval: the lean agent-path drain carries the
// open interval — clone snapshots plus buffer, no detection history —
// and absorbing it additively reproduces a direct run exactly, interval
// after interval (the drained pipeline starts each one empty).
func TestPipelineDrainOpenInterval(t *testing.T) {
	direct, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	agent, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	primary, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	for i := 0; i < 7; i++ {
		recs := snapRecords(i, 900, i == 5)
		direct.ObserveBatch(recs)
		agent.ObserveBatch(recs)

		oi := agent.DrainOpenInterval()
		if oi.Buffer.Len() != len(recs) {
			t.Fatalf("interval %d: drained %d records, want %d", i, oi.Buffer.Len(), len(recs))
		}
		if rd := agent.DrainOpenInterval(); rd.Buffer.Len() != 0 {
			t.Fatalf("interval %d: re-drain still holds %d records", i, rd.Buffer.Len())
		}
		if len(oi.Clones) == 0 {
			t.Fatalf("interval %d: drained no detector clones", i)
		}
		for _, clones := range oi.Clones {
			for _, hs := range clones {
				if hs.Total == 0 {
					t.Fatalf("interval %d: drained open interval has empty clone", i)
				}
			}
		}
		if err := primary.AbsorbOpenInterval(oi); err != nil {
			t.Fatal(err)
		}
		want, err := direct.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		got, err := primary.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d: absorb-of-open-interval diverged from direct run:\n got %+v\nwant %+v",
				i, got, want)
		}
	}
}

// TestAbsorbOpenIntervalRejectsShape: absorbing an open interval drained
// from a differently configured pipeline errors instead of corrupting
// the bank.
func TestAbsorbOpenIntervalRejectsShape(t *testing.T) {
	cfg := snapConfig()
	cfg.Features = []flow.FeatureKind{flow.SrcIP, flow.DstIP}
	narrow, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer narrow.Close()
	narrow.ObserveBatch(snapRecords(0, 100, false))

	p, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.AbsorbOpenInterval(narrow.DrainOpenInterval()); err == nil {
		t.Error("absorb across feature sets accepted")
	}
}

// TestRejectedOpenIntervalLeavesBankUntouched: an open interval whose
// snapshots are malformed only at the last detector — so a
// detector-by-detector merge would already have folded the first four —
// is rejected whole. The collector's next report over the same traffic
// equals a never-touched pipeline's, alarm interval included.
func TestRejectedOpenIntervalLeavesBankUntouched(t *testing.T) {
	const last = 4 // the fifth of the default five features
	corrupt := map[string]func(oi *OpenInterval){
		"detector count": func(oi *OpenInterval) { oi.Clones = oi.Clones[:last] },
		"clone count":    func(oi *OpenInterval) { oi.Clones[last] = oi.Clones[last][:2] },
		"bin count":      func(oi *OpenInterval) { oi.Clones[last][2].Counts = oi.Clones[last][2].Counts[:8] },
		"untracked":      func(oi *OpenInterval) { oi.Clones[last][1].Values = nil },
		"clone totals":   func(oi *OpenInterval) { oi.Clones[last][2].Total++ },
		"value entries": func(oi *OpenInterval) {
			vs := oi.Clones[last][1].Values
			for b := range vs {
				if len(vs[b]) > 0 {
					vs[b] = vs[b][1:]
					return
				}
			}
		},
	}
	for name, mutate := range corrupt {
		t.Run(name, func(t *testing.T) {
			ref, err := New(snapConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			p, err := New(snapConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			agent, err := New(snapConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer agent.Close()
			for i := 0; i < 7; i++ {
				recs := snapRecords(i, 900, i == 6)
				ref.ObserveBatch(recs)
				p.ObserveBatch(recs)
				if i == 6 {
					agent.ObserveBatch(snapRecords(50, 400, true))
					oi := agent.DrainOpenInterval()
					mutate(&oi)
					if err := p.AbsorbOpenInterval(oi); err == nil {
						t.Fatal("malformed open interval absorbed")
					}
				}
				want, err := ref.EndInterval()
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.EndInterval()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("interval %d: report after a rejected absorb differs:\n got %+v\nwant %+v", i, got, want)
				}
				if i == 6 && !want.Alarm {
					t.Fatal("the compared interval did not alarm")
				}
			}
		})
	}
}

// TestPipelineRestoreRejectsShape: restoring across configurations
// errors instead of corrupting state.
func TestPipelineRestoreRejectsShape(t *testing.T) {
	p, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ObserveBatch(snapRecords(0, 100, false))
	s := p.Snapshot()

	cfg := snapConfig()
	cfg.Features = []flow.FeatureKind{flow.SrcIP, flow.DstIP}
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.RestoreSnapshot(s); err == nil {
		t.Error("restore across feature sets accepted")
	}
}
