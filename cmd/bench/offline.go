package main

import (
	"fmt"
	"runtime"
	"time"

	"anomalyx"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/mining/eclat"
	"anomalyx/internal/prefilter"
	"anomalyx/internal/tracegen"
)

// tableIIMeta is the worked example's alarm annotation: the flagged
// port and the three popular ports the paper added to force
// false-positive item-sets.
func tableIIMeta() anomalyx.MetaData {
	meta := anomalyx.NewMetaData()
	for _, port := range []uint64{7000, 80, 9022, 25} {
		meta.Add(anomalyx.DstPort, port)
	}
	return meta
}

// tableIIInput generates the scenario, thinned to every sample-th flow
// (and the minimum support with it) when tests ask for a small one.
func tableIIInput(seed uint64, sample int) ([]anomalyx.Flow, anomalyx.Config) {
	d := tracegen.TableIIScenario(seed)
	cfg := anomalyx.Config{MinSupport: d.MinSupport / sample, Workers: 1}
	if sample == 1 {
		return d.Flows, cfg
	}
	var flows []anomalyx.Flow
	for i := 0; i < len(d.Flows); i += sample {
		flows = append(flows, d.Flows[i])
	}
	return flows, cfg
}

// runOffline is tableii_offline: the paper's worked example through
// ExtractOffline, one extraction per operation.
func runOffline(opt options) (*outcome, error) {
	out := newOutcome()
	var flows []anomalyx.Flow
	var cfg anomalyx.Config
	var setups []float64
	// Generation is all there is to set up, and it is short: repeat it a
	// few more times than the streamed workloads do.
	for i := 0; i < max(opt.sz.Setups, 1)+2; i++ {
		t0 := time.Now()
		flows, cfg = tableIIInput(opt.seed, opt.sz.TableSample)
		setups = append(setups, time.Since(t0).Seconds())
	}
	meta := tableIIMeta()
	out.values["setup_s"] = median(setups)
	out.note("setup_s: median of %d set-ups %v", len(setups), setups)

	hwmReset := releaseSetUpMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var ms, rates, cpus []float64
	var first *anomalyx.Report
	start := time.Now()
	for done := false; !done; {
		cpu0, t0 := cpuSeconds(), time.Now()
		rep, err := anomalyx.ExtractOffline(cfg, flows, meta)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, (cpuSeconds()-cpu0)/float64(len(flows))*1e6)
		ms = append(ms, float64(d)/1e6)
		rates = append(rates, float64(len(flows))/d.Seconds())
		out.attempted++
		checkTableII(out, rep, &first)
		done = time.Since(start).Seconds() >= opt.engineSeconds()
	}
	runtime.ReadMemStats(&after)
	out.values["records_per_s"] = median(rates)
	out.values["close_ms_p50"] = median(ms)
	out.values["cpu_us_per_record"] = median(cpus)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mb"] = rss
	out.note("input: %d flows, minimum support %d; %d extractions", len(flows), cfg.MinSupport, len(ms))
	out.note("peak_rss_mb: VmHWM, reset after set-up: %v", hwmReset)
	out.facts["digest"] = digestReports([]*anomalyx.Report{first})
	out.facts.setInt("maximal_itemsets", len(first.ItemSets))

	if !opt.traced {
		// The reference computation: a different miner on the same
		// suspicious set must find the same maximal item-sets.
		rcfg := cfg
		rcfg.Miner = anomalyx.FPGrowth()
		ref, err := anomalyx.ExtractOffline(rcfg, flows, meta)
		if err != nil {
			return nil, err
		}
		if got, want := fmt.Sprintf("%+v", first.ItemSets), fmt.Sprintf("%+v", ref.ItemSets); got != want {
			out.fail(1, "Apriori's maximal item-sets differ from FP-growth's:\n%s\nvs\n%s", got, want)
		}
		return out, nil
	}

	out.values["alarm_close_ms_p50"] = median(ms)
	out.values["alarm_close_ms_p90"] = percentile(ms, 90)
	out.note("alarm_close_ms_p90: only %d samples, fewer than ten lie beyond it", len(ms))
	processMetrics(out, &before, &after, len(flows)*len(ms))
	return out, replayOffline(opt, out, flows, cfg, meta, first)
}

// replayOffline is the staged replay of the extraction: row-form
// prefilter, item-set build and mining performed by the harness, and
// the composite — ExtractOffline — beside them. One repetition is one
// block (see beginBlock).
func replayOffline(opt options, out *outcome, flows []anomalyx.Flow, cfg anomalyx.Config, meta anomalyx.MetaData, first *anomalyx.Report) error {
	r := &replay{tracer: newTracer(), alloc: make(map[string]*allocStat), info: []intervalInfo{{alarm: true, extracted: true}}}
	miner, ecl := mining.Miner(apriori.New()), mining.Miner(eclat.New())
	deadline := opt.replayDeadline()
	for b := 0; b < minReplayBlocks || time.Now().Before(deadline); b++ {
		r.beginBlock(b)
		var suspicious []anomalyx.Flow
		var txs []itemset.Transaction
		var res *mining.Result
		var rep *anomalyx.Report
		var err error
		r.group("interval", func() {
			r.stage("prefilter.rowform_scan", func() int {
				suspicious = prefilter.FilterParallel(prefilter.Union{}, meta, flows, 1)
				return len(flows)
			})
			r.stage("itemset.build", func() int { txs = itemset.FromFlows(suspicious); return len(txs) })
			r.stage("mining.mine", func() int { res, err = miner.Mine(txs, cfg.MinSupport); return len(txs) })
			if err == nil {
				r.stage("core.extract_offline", func() int { rep, err = anomalyx.ExtractOffline(cfg, flows, meta); return len(flows) })
			}
		})
		if err != nil {
			return err
		}
		r.endBlock()
		// Eclat mines the same transactions outside the timed block: it is
		// not part of the close the block decomposes.
		r.stage("mining.eclat", func() int { _, err = ecl.Mine(txs, cfg.MinSupport); return len(txs) })
		if err != nil {
			return err
		}
		out.attempted++
		staged := stagedResult{alarm: true, suspicious: len(suspicious), minsup: cfg.MinSupport, maximal: res.Maximal}
		if diff := sameExtraction(staged, rep); diff != "" {
			out.fail(1, "replay %d: staged steps disagree with ExtractOffline: %s", b, diff)
		} else if renderString(rep) != renderString(first) {
			out.fail(1, "replay %d: report differs from the measured run's", b)
		}
		r.countSets(res)
		r.suspShare.selected += int64(len(suspicious))
		r.suspShare.scanned += int64(len(flows))
	}
	return replayMetrics(r, out, opt.traceOut)
}

// checkTableII holds one extraction to the paper's Table II: exactly
// three maximal item-sets carry dstPort 7000, and every repetition
// repeats the first report.
func checkTableII(out *outcome, rep *anomalyx.Report, first **anomalyx.Report) {
	flood := 0
	for i := range rep.ItemSets {
		if rep.ItemSets[i].Has(anomalyx.Item{Kind: anomalyx.DstPort, Value: 7000}) {
			flood++
		}
	}
	if *first == nil {
		*first = rep
	}
	switch {
	case flood != 3:
		out.fail(1, "%d maximal item-sets carry dstPort=7000, Table II has 3", flood)
	case rep != *first && renderString(rep) != renderString(*first):
		out.fail(1, "extraction %d: report differs from the first", out.attempted)
	}
}
