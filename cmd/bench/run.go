package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"anomalyx"
)

// options select and scale one run.
type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	sz       sizes
	tmpRoot  string // temp files are made (and removed) under here
	traceOut string // traced runs write their spans here as JSON lines
}

// A traced run spends a third of its time in the engine run (submit
// spans, process counters, the reports the replay is held to) and the
// rest in the staged replay.
func (o options) engineSeconds() float64 {
	if o.traced {
		return o.seconds / 3
	}
	return o.seconds
}

func (o options) replayDeadline() time.Time {
	return time.Now().Add(time.Duration((o.seconds - o.engineSeconds()) * float64(time.Second)))
}

// runWorkload sets the workload up, measures it for opt.seconds, checks
// its outputs, and returns what it measured.
func runWorkload(wl *workload, opt options) (*outcome, error) {
	if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	if wl.offline {
		return runOffline(opt)
	}
	return runStreamed(wl, opt)
}

// setUp builds the workload's inputs and system under test opt.sz.Setups
// times — trace generation, v5 encode, file write, engine or collector
// construction, warm-up intervals — keeps the last, and returns every
// set-up's duration.
func setUp(wl *workload, opt options) (*streamRun, []float64, error) {
	var s *streamRun
	var times []float64
	for i := 0; i < max(opt.sz.Setups, 1); i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
			s.tr.remove()
		}
		t0 := time.Now()
		dir, err := os.MkdirTemp(opt.tmpRoot, "run-")
		if err != nil {
			return nil, nil, err
		}
		tr, err := generate(wl, opt.sz, opt.seed, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		s = &streamRun{wl: wl, tr: tr, traced: opt.traced}
		if err = s.start(); err == nil {
			err = s.warmUp()
		}
		if err != nil {
			s.stop()
			tr.remove()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, times, nil
}

func runStreamed(wl *workload, opt options) (*outcome, error) {
	s, setups, err := setUp(wl, opt)
	if err != nil {
		return nil, err
	}
	tr := s.tr
	defer tr.remove()
	out := newOutcome()
	out.values["setup_s"] = median(setups)
	out.note("setup_s: median of %d set-ups %v", len(setups), setups)

	hwmReset := releaseSetUpMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steal0 := hostJiffies()
	wireBefore := int64(0)
	if s.ln != nil {
		wireBefore = s.ln.read.Load()
	}
	measureErr := s.measure(opt.engineSeconds())
	stopErr := s.stop()
	runtime.ReadMemStats(&after)
	if measureErr != nil {
		return nil, measureErr
	}
	if stopErr != nil {
		return nil, stopErr
	}

	passes := len(s.passes)
	measured := 0
	var rates, cpus []float64
	for _, p := range s.passes {
		measured += p.records
		rates = append(rates, float64(p.records)/p.wallS)
		cpus = append(cpus, p.cpuS/float64(p.records)*1e6)
	}
	out.attempted = passes * tr.measN
	checkStream(s, out)

	event, quiet, missed, unscheduled := s.closeLatencies()
	out.values["records_per_s"] = median(rates)
	out.values["cpu_us_per_record"] = median(cpus)
	if wl.classes != nil {
		out.values["close_ms_p50"] = median(event)
	} else {
		out.values["close_ms_p50"] = median(quiet)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mb"] = rss
	out.note("input: %d records per pass (%d intervals of ~%d flows), %d passes, %d records measured", tr.passRecs, tr.measN, tr.passRecs/tr.measN, passes, measured)
	out.note("records_per_s: median of %d passes; close_ms_p50: %d event closes, %d quiet closes; %d scheduled events missed, %d unscheduled alarms", passes, len(event), len(quiet), missed, unscheduled)
	out.note("peak_rss_mb: VmHWM, reset after set-up: %v", hwmReset)
	out.note("pass rates: %.4g", rates)
	out.note("host: %.1f%% of CPU time stolen by the hypervisor during the measured phase", 100*stolenShare(steal0, hostJiffies()))
	// Detection is statistical (a window full of events inflates the MAD
	// threshold), so a missed event is counted, not failed; but a run
	// that misses most of them is not measuring alarm closes.
	if events := len(event) + missed; 2*missed > events {
		out.fail(missed, "%d of %d scheduled events extracted no item-sets", missed, events)
	}

	if !opt.traced {
		checkReference(s, out)
		return out, nil
	}

	// The per-layer view of the same engine run.
	out.values["alarm_close_ms_p50"] = median(event)
	out.values["alarm_close_ms_p90"] = percentile(event, 90)
	out.values["quiet_close_ms_p50"] = median(quiet)
	if p, ok := highestSupported(len(event)); len(event) > 0 && (!ok || p < 90) {
		out.note("alarm_close_ms_p90: only %d samples, fewer than ten lie beyond it", len(event))
	}
	if s.ln != nil {
		// Agents ship every interval they close; the last one is
		// flushed by Close and acknowledged before stop returns.
		out.values["wire_bytes_per_record"] = ratio(float64(s.ln.read.Load()-wireBefore), float64(measured))
	}
	var calls []float64
	var boundary []float64
	var callNs, callRecs int64
	for _, cs := range s.calls {
		for _, c := range cs {
			callNs += c.ns
			callRecs += int64(c.records)
			calls = append(calls, float64(c.ns)/1e6)
			if c.crossed {
				boundary = append(boundary, float64(c.ns)/1e6)
			}
		}
	}
	out.values["engine.submit_ns_per_record"] = ratio(float64(callNs), float64(callRecs))
	out.values["engine.submit_ms_p99"] = percentile(calls, 99)
	out.values["engine.boundary_submit_ms_p90"] = percentile(boundary, 90)
	processMetrics(out, &before, &after, measured)

	return out, runReplay(s, opt, out)
}

// checkStream holds the engine run to what was submitted: every report
// present, every measured interval's flow count the trace's own.
func checkStream(s *streamRun, out *outcome) {
	tr := s.tr
	want := tr.warmN + len(s.passes)*tr.measN
	if got := len(s.sums); got != want {
		out.fail(max(want-got, 1), "%d reports received, %d intervals submitted", got, want)
	}
	submitted, reported := tr.warmRecs, 0
	for _, p := range s.passes {
		submitted += p.records
	}
	for _, sum := range s.sums {
		reported += sum.flows
	}
	if reported != submitted {
		out.fail(1, "reports account for %d flows, %d submitted", reported, submitted)
	}
	// Ground truth over the first pass is seed-determined: pin it.
	alarms, unscheduled, missed, meta := 0, 0, 0, 0
	for j, rep := range s.pass0 {
		_, scheduled := tr.events[j]
		if rep.Alarm {
			alarms++
			meta += rep.Detection.Meta.Count()
			if !scheduled {
				unscheduled++
			}
		}
		if scheduled && (len(rep.ItemSets) == 0 || !s.sums[tr.warmN+j].matched) {
			missed++
		}
	}
	out.values["detector.alarm_intervals"] = float64(alarms)
	out.values["detector.unscheduled_alarms"] = float64(unscheduled)
	out.values["detector.missed_events"] = float64(missed)
	out.values["detector.meta_values_per_alarm"] = ratio(float64(meta), float64(alarms))
	out.facts["digest"] = digestReports(s.pass0)
	out.facts.setInt("pass_records", tr.passRecs)
	out.facts.setInt("alarm_intervals", alarms)
	out.facts.setInt("unscheduled_alarms", unscheduled)
	out.facts.setInt("missed_events", missed)
	out.facts.setInt("meta_values", meta)
}

// checkReference holds the first measured pass's reports to a reference
// computation: a bare core.Pipeline fed the same files interval by
// interval, no engine, no shards, no wire.
func checkReference(s *streamRun, out *outcome) {
	tr := s.tr
	ref, err := anomalyx.NewPipeline(pipelineConfig())
	if err != nil {
		out.fail(1, "reference pipeline: %v", err)
		return
	}
	defer ref.Close()
	walk := func(paths []string, first, n int, check bool) {
		var srcs []*intervalReader
		for _, p := range paths {
			src, err := openIntervals(p, 0)
			if err != nil {
				out.fail(1, "reference: %v", err)
				return
			}
			defer src.f.Close()
			srcs = append(srcs, src)
		}
		var recs []anomalyx.Flow
		for i := 0; i < n; i++ {
			end := tr.startMs + int64(first+i+1)*tr.stepMs
			for _, src := range srcs {
				recs, _ = src.next(end, math.MaxInt, recs[:0])
				ref.ObserveBatch(recs)
			}
			rep, err := ref.EndInterval()
			if err != nil {
				out.fail(1, "reference interval %d: %v", first+i, err)
				return
			}
			if !check || i >= len(s.pass0) {
				continue
			}
			if got, want := renderString(s.pass0[i]), renderString(rep); got != want {
				out.fail(1, "interval %d: report differs from the reference pipeline's:\n%s\nvs\n%s", first+i, got, want)
			}
		}
	}
	walk(tr.warm, 0, tr.warmN, false)
	walk(tr.meas, tr.warmN, tr.measN, true)
}

// processMetrics reports the Go runtime's view of the measured phase.
func processMetrics(out *outcome, before, after *runtime.MemStats, records int) {
	out.values["process.alloc_bytes_per_record"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(records))
	out.values["process.allocs_per_record"] = ratio(float64(after.Mallocs-before.Mallocs), float64(records))
	out.values["process.gc_cycles"] = float64(after.NumGC - before.NumGC)
	out.values["process.gc_pause_ms_total"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	out.values["process.heap_live_mb_end"] = float64(after.HeapAlloc) / (1 << 20)
}

// releaseSetUpMemory returns set-up's garbage to the OS and restarts
// the kernel's resident-set high-water mark, so that peak_rss_mb is the
// measured phase's peak; it reports whether the restart worked (it
// needs /proc/self/clear_refs to be writable).
func releaseSetUpMemory() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostJiffies reads the aggregate cpu line of /proc/stat (nil when it
// cannot be read): user, nice, system, idle, iowait, irq, softirq,
// steal, ...
func hostJiffies() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []float64
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stolenShare is the share of the host's CPU time between two
// hostJiffies readings that the hypervisor gave to someone else — the
// reader's hint that a shared box disturbed the run.
func stolenShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	total := 0.0
	for i := 0; i < 8; i++ {
		total += b[i] - a[i]
	}
	return ratio(b[7]-a[7], total)
}
