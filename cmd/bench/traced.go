package main

import (
	"os"
	"time"
)

// minReplayBlocks is one MemStats block, one traced and one untraced
// timing block: the least that yields every per-layer metric.
const minReplayBlocks = 3

// replayBlock is the number of intervals the replay spends in one mode:
// eight event cycles, or the whole measured file when that is shorter.
func replayBlock(sz sizes) int { return min(8*sz.EventEvery, sz.Measured) }

// runReplay is the second part of a streamed traced run: the staged
// replay of the trace the engine just ran, held to the engine's
// first-pass reports interval for interval.
func runReplay(s *streamRun, opt options, out *outcome) error {
	tr := s.tr
	r, err := newReplay(s.wl, tr)
	if err != nil {
		return err
	}
	if err := r.open(tr.warm, 0); err != nil {
		return err
	}
	for i := 0; i < tr.warmN; i++ {
		if _, _, err := r.interval(tr.startMs+int64(i+1)*tr.stepMs, false, false); err != nil {
			return err
		}
	}

	// The replay walks the measured file in blocks of replayBlock
	// intervals, one mode per block (see beginBlock). Every block holds
	// the same number of scheduled events.
	deadline := opt.replayDeadline()
	block := replayBlock(opt.sz)
	for g := 0; g/block < minReplayBlocks || g%block != 0 || time.Now().Before(deadline); g++ {
		p, j := g/tr.measN, g%tr.measN
		if j == 0 {
			if err := r.open(tr.meas, tr.passShiftMs(p)); err != nil {
				return err
			}
		}
		if g%block == 0 {
			r.beginBlock(g / block)
		}
		// Event slots are sampled by the histogram microbenchmark; every
		// other event cycle closes the sharded twin synchronously.
		slot := j%opt.sz.EventEvery == opt.sz.EventEvery/2
		rep, res, err := r.interval(tr.intervalEnd(p, j), slot, (j/opt.sz.EventEvery)%2 == 1)
		if err != nil {
			return err
		}
		out.attempted++
		if diff := sameExtraction(res, rep); diff != "" {
			out.fail(1, "replay interval %d: staged steps disagree with the composite: %s", g, diff)
		} else if g < len(s.pass0) {
			if got, want := renderString(rep), renderString(s.pass0[g]); got != want {
				out.fail(1, "replay interval %d: report differs from the engine run's:\n%s\nvs\n%s", g, got, want)
			}
		}
		if (g+1)%block == 0 {
			r.endBlock()
		}
	}
	if err := r.shutdown(); err != nil {
		return err
	}
	return replayMetrics(r, out, opt.traceOut)
}

// replayMetrics turns the replay's spans and MemStats deltas into the
// per-layer metrics, and writes the spans to traceOut when it is set.
func replayMetrics(r *replay, out *outcome, traceOut string) error {
	out.note("replay: 1 MemStats block, %d traced and %d untraced blocks, %d spans", len(r.tracedS), len(r.plainS), len(r.tracer.spans))
	v := out.values
	spans := r.tracer.spans
	get := func(m map[string]*spanStats, name string) *spanStats {
		if st := m[name]; st != nil {
			return st
		}
		return &spanStats{}
	}
	alloc := func(name string) *allocStat {
		if st := r.alloc[name]; st != nil {
			return st
		}
		return &allocStat{}
	}
	all := byName(spans, nil)
	alarm := byName(spans, func(s span) bool { return r.info[s.Interval].extracted })
	quiet := byName(spans, func(s span) bool { return !r.info[s.Interval].alarm })

	v["netflow.decode_ns_per_record"] = get(all, "netflow.decode").nsPer()
	v["netflow.decode_allocs_per_record"] = alloc("netflow.decode").allocsPer()
	v["netflow.decode_errors"] = float64(r.decodeErrs)

	v["flow.append_ns_per_record"] = get(all, "flow.append").nsPer()
	v["flow.append_bytes_per_record"] = alloc("flow.append").bytesPer()

	v["histogram.add_ns"] = get(all, "histogram.add").nsPer()
	v["histogram.distinct_values_per_interval"] = median(r.distinct)
	v["histogram.snapshot_ms_p50"] = median(get(all, "histogram.snapshot").durMs)

	v["detector.observe_ns_per_record"] = get(all, "detector.observe").nsPer()
	v["detector.finish_ms_p50"] = median(get(all, "detector.finish").durMs)
	v["detector.merge_ms_p50"] = median(get(all, "detector.merge").durMs)

	v["core.observe_ns_per_record"] = get(all, "core.observe").nsPer()
	v["core.end_interval_quiet_ms_p50"] = median(get(quiet, "core.end_interval").durMs)
	v["core.end_interval_alarm_ms_p50"] = median(get(alarm, "core.end_interval").durMs)
	v["core.begin_close_us_p50"] = median(get(all, "core.begin_close").durMs) * 1e3
	v["core.finish_ms_p50"] = median(get(all, "core.finish").durMs)
	v["core.drain_open_us_p50"] = median(get(all, "core.drain_open").durMs) * 1e3
	v["core.absorb_open_ms_p50"] = median(get(all, "core.absorb_open").durMs)

	v["shard.observe_ns_per_record"] = get(all, "shard.observe").nsPer()
	v["shard.end_interval_ms_p50"] = median(get(all, "shard.end_interval").durMs)
	if _, sharded := r.twin.(*shardTwin); sharded {
		v["shard.skew"] = ratio(float64(r.shardMax)*float64(r.parts), float64(r.shardAll))
	}

	v["prefilter.scan_ns_per_record"] = get(all, "prefilter.scan").nsPer()
	v["prefilter.suspicious_share"] = ratio(float64(r.suspShare.selected), float64(r.suspShare.scanned))
	// One prefilter.scan call per partition; the close count is mining's.
	v["prefilter.allocs_per_alarm"] = ratio(float64(alloc("prefilter.scan").allocs+alloc("prefilter.rowform_scan").allocs), float64(alloc("mining.mine").calls))
	v["prefilter.rowform_scan_ns_per_record"] = get(all, "prefilter.rowform_scan").nsPer()

	v["itemset.build_ns_per_tx"] = get(all, "itemset.build").nsPer()
	v["itemset.build_bytes_per_tx"] = alloc("itemset.build").bytesPer()

	v["mining.mine_ms_p50"] = median(get(all, "mining.mine").durMs)
	v["mining.mine_ns_per_tx"] = get(all, "mining.mine").nsPer()
	v["mining.alloc_bytes_per_tx"] = alloc("mining.mine").bytesPer()
	v["mining.allocs_per_tx"] = alloc("mining.mine").allocsPer()
	v["mining.frequent_sets_per_alarm"] = ratio(float64(r.sets.frequent), float64(r.sets.alarms))
	v["mining.maximal_share"] = ratio(float64(r.sets.maximal), float64(r.sets.frequent))
	v["mining.eclat_mine_ms_p50"] = median(get(all, "mining.eclat").durMs)

	v["wire.encode_ns_per_record"] = get(all, "wire.encode").nsPer()
	v["wire.decode_ns_per_record"] = get(all, "wire.decode").nsPer()
	v["wire.encode_allocs_per_interval"] = alloc("wire.encode").allocsPerCall()
	v["wire.decode_allocs_per_interval"] = alloc("wire.decode").allocsPerCall()
	v["wire.ship_ack_ms_p50"] = median(get(all, "wire.ship_ack").durMs)
	if at, ok := r.twin.(*agentTwin); ok {
		v["wire.frame_bytes_per_record"] = ratio(float64(at.frameBytes), float64(at.frameRecs))
		out.facts.setInt("frame_bytes", int(at.frameBytes))
	}

	// How honest the outside-in split is: the staged close steps against
	// the composite close they decompose, over intervals that extracted.
	staged, composite, extraction := int64(0), int64(0), int64(0)
	for _, name := range []string{"detector.merge", "detector.finish", "prefilter.scan", "prefilter.rowform_scan", "itemset.build", "mining.mine"} {
		staged += get(alarm, name).ns
	}
	for _, name := range []string{"prefilter.scan", "prefilter.rowform_scan", "itemset.build", "mining.mine"} {
		extraction += get(alarm, name).ns
	}
	for _, name := range []string{"core.end_interval", "core.finish", "shard.end_interval", "core.absorb_open", "core.extract_offline"} {
		composite += get(alarm, name).ns
	}
	v["trace.coverage_share"] = ratio(float64(staged), float64(composite))
	v["trace.extraction_share_of_close"] = ratio(float64(extraction), float64(composite))
	if len(r.tracedS) > 0 && len(r.plainS) > 0 {
		v["trace.overhead_share"] = median(r.tracedS)/median(r.plainS) - 1
	}
	self := layerSelf(spans)
	for _, layer := range sortedKeys(self) {
		out.note("self time %-10s %10.3f ms", layer, float64(self[layer])/1e6)
	}
	if traceOut == "" {
		return nil
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
