package main

import "fmt"

// metricDef declares one metric: BENCHMARK.json carries the same
// tables, and a test holds the two to each other.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them (the driver's contract), so each is defined on all
// six: close_ms_p50 is over the operation the workload exists for — the
// close of scheduled-event intervals on the event workloads, of every
// interval on quiet_ingest, one extraction on tableii_offline.
//
// Every bound is the contract's maximum. The reference box is a shared
// two-core VM: ten runs on ten seeds spread (interquartile range over
// median) by 2-8 % while the host is calm and by 10-40 % while it is
// not, and a bound has to hold about three such spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "records/s", "higher", 0.25},
	{"close_ms_p50", "ms", "lower", 0.25},
	{"cpu_us_per_record", "us/record", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of a traced run, layer by layer. A layer a
// workload never executes reports 0.
var perLayer = []metricDef{
	// The close latencies by population, and the link cost: end-to-end
	// in meaning, but defined on some workloads only.
	{"alarm_close_ms_p50", "ms", "lower", 0},
	{"alarm_close_ms_p90", "ms", "lower", 0},
	{"quiet_close_ms_p50", "ms", "lower", 0},
	{"wire_bytes_per_record", "B/record", "lower", 0},

	{"netflow.decode_ns_per_record", "ns/record", "lower", 0},
	{"netflow.decode_allocs_per_record", "allocs/record", "lower", 0},
	{"netflow.decode_errors", "count", "lower", 0},

	{"engine.submit_ns_per_record", "ns/record", "lower", 0},
	{"engine.submit_ms_p99", "ms", "lower", 0},
	{"engine.boundary_submit_ms_p90", "ms", "lower", 0},

	{"flow.append_ns_per_record", "ns/record", "lower", 0},
	{"flow.append_bytes_per_record", "B/record", "lower", 0},

	{"histogram.add_ns", "ns", "lower", 0},
	{"histogram.distinct_values_per_interval", "count", "lower", 0},
	{"histogram.snapshot_ms_p50", "ms", "lower", 0},

	{"detector.observe_ns_per_record", "ns/record", "lower", 0},
	{"detector.finish_ms_p50", "ms", "lower", 0},
	{"detector.merge_ms_p50", "ms", "lower", 0},
	{"detector.alarm_intervals", "count", "higher", 0},
	{"detector.unscheduled_alarms", "count", "lower", 0},
	{"detector.missed_events", "count", "lower", 0},
	{"detector.meta_values_per_alarm", "count", "lower", 0},

	{"core.observe_ns_per_record", "ns/record", "lower", 0},
	{"core.end_interval_quiet_ms_p50", "ms", "lower", 0},
	{"core.end_interval_alarm_ms_p50", "ms", "lower", 0},
	{"core.begin_close_us_p50", "us", "lower", 0},
	{"core.finish_ms_p50", "ms", "lower", 0},
	{"core.drain_open_us_p50", "us", "lower", 0},
	{"core.absorb_open_ms_p50", "ms", "lower", 0},

	{"shard.observe_ns_per_record", "ns/record", "lower", 0},
	{"shard.end_interval_ms_p50", "ms", "lower", 0},
	{"shard.skew", "ratio", "lower", 0},

	{"prefilter.scan_ns_per_record", "ns/record", "lower", 0},
	{"prefilter.suspicious_share", "share", "lower", 0},
	{"prefilter.allocs_per_alarm", "allocs", "lower", 0},
	{"prefilter.rowform_scan_ns_per_record", "ns/record", "lower", 0},

	{"itemset.build_ns_per_tx", "ns/tx", "lower", 0},
	{"itemset.build_bytes_per_tx", "B/tx", "lower", 0},

	{"mining.mine_ms_p50", "ms", "lower", 0},
	{"mining.mine_ns_per_tx", "ns/tx", "lower", 0},
	{"mining.alloc_bytes_per_tx", "B/tx", "lower", 0},
	{"mining.allocs_per_tx", "allocs/tx", "lower", 0},
	{"mining.frequent_sets_per_alarm", "count", "lower", 0},
	{"mining.maximal_share", "share", "higher", 0},
	{"mining.eclat_mine_ms_p50", "ms", "lower", 0},

	{"wire.encode_ns_per_record", "ns/record", "lower", 0},
	{"wire.decode_ns_per_record", "ns/record", "lower", 0},
	{"wire.encode_allocs_per_interval", "allocs", "lower", 0},
	{"wire.decode_allocs_per_interval", "allocs", "lower", 0},
	{"wire.frame_bytes_per_record", "B/record", "lower", 0},
	{"wire.ship_ack_ms_p50", "ms", "lower", 0},

	{"process.alloc_bytes_per_record", "B/record", "lower", 0},
	{"process.allocs_per_record", "allocs/record", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_ms_total", "ms", "lower", 0},
	{"process.heap_live_mb_end", "MB", "lower", 0},

	{"trace.extraction_share_of_close", "share", "higher", 0},
	{"trace.coverage_share", "share", "higher", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a run measured, before it is cut down to the declared
// metrics.
type outcome struct {
	attempted int
	failed    int
	problems  []string // the first failures, for the log
	values    map[string]float64
	facts     facts
	notes     []string // sample counts, input sizes: printed beside the metrics
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64), facts: make(facts)} }

// fail records n failed operations.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result keeps the declared metrics, in declaration order; a declared
// metric the run did not measure reports 0.
func (o *outcome) result(defs []metricDef) result {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: o.values[d.name], Unit: d.unit}
	}
	return res
}
