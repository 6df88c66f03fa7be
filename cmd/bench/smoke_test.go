package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSizes is every workload at test size: a few hundred flows per
// interval and two scheduled events per pass.
var smokeSizes = sizes{BaseFlows: 600, Warm: 16, Measured: 16, EventEvery: 8, TableSample: 20, Setups: 1}

func declared(defs []metricDef) map[string]bool {
	m := make(map[string]bool)
	for _, d := range defs {
		m[d.name] = true
	}
	return m
}

// TestSmokeAllWorkloads runs all six workloads untraced and traced, one
// pass each, and asserts that every check passes, that the run measured
// every declared metric the workload's layers can produce, and that it
// measured nothing that is not declared.
func TestSmokeAllWorkloads(t *testing.T) {
	e2e, layers := declared(endToEnd), declared(perLayer)
	digests := make(map[string]string)
	for i := range workloads {
		wl := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := wl.name + "/untraced"
			if traced {
				name = wl.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				opt := options{seed: defaultSeed, seconds: 0, traced: traced, sz: smokeSizes, tmpRoot: t.TempDir()}
				if traced {
					opt.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				out, err := runWorkload(wl, opt)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted < 1 {
					t.Fatalf("%d failed of %d attempted: %v", out.failed, out.attempted, out.problems)
				}
				for name := range out.values {
					if !e2e[name] && !layers[name] {
						t.Errorf("measured %s, which BENCHMARK.json does not declare", name)
					}
				}
				if left, err := os.ReadDir(opt.tmpRoot); err != nil || len(left) != 0 {
					t.Errorf("the run left %d entries in its temp directory (%v)", len(left), err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				res := out.result(defs)
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m := res.Metrics[d.name]
					if m.Unit != d.unit {
						t.Errorf("%s reported in %q, declared in %q", d.name, m.Unit, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v: every workload must report every one above zero", d.name, m.Value)
					}
				}
				if traced {
					checkLayers(t, wl, out)
					spans, err := os.ReadFile(opt.traceOut)
					if err != nil || !strings.Contains(string(spans), `"name":"interval"`) {
						t.Errorf("trace file: %v, %d bytes", err, len(spans))
					}
				} else {
					digests[wl.name] = out.facts["digest"]
				}
			})
		}
	}
	// The same records through one pipeline, two pipelined shards and two
	// agents: the determinism contract says the reports are identical.
	for _, name := range []string{"sharded_pipelined", "agents_loopback"} {
		if digests[name] == "" || digests[name] != digests["flood_extract"] {
			t.Errorf("%s digest %q, flood_extract digest %q", name, digests[name], digests["flood_extract"])
		}
	}
}

// checkLayers asserts the layers separate as designed: a layer's
// metrics are above zero on the workloads that execute it and zero on
// the others.
func checkLayers(t *testing.T, wl *workload, out *outcome) {
	t.Helper()
	positive := func(want bool, names ...string) {
		t.Helper()
		for _, n := range names {
			if got := out.values[n] > 0; got != want {
				t.Errorf("%s = %v on %s", n, out.values[n], wl.name)
			}
		}
	}
	extraction := []string{"mining.mine_ms_p50", "mining.mine_ns_per_tx", "mining.allocs_per_tx", "mining.eclat_mine_ms_p50",
		"itemset.build_ns_per_tx", "itemset.build_bytes_per_tx", "prefilter.suspicious_share", "prefilter.allocs_per_alarm",
		"trace.coverage_share", "trace.extraction_share_of_close", "alarm_close_ms_p50"}
	ingest := []string{"netflow.decode_ns_per_record", "flow.append_ns_per_record", "detector.observe_ns_per_record",
		"detector.finish_ms_p50", "engine.submit_ns_per_record", "engine.boundary_submit_ms_p90", "histogram.add_ns",
		"histogram.distinct_values_per_interval", "quiet_close_ms_p50"}
	sharded := []string{"shard.observe_ns_per_record", "shard.end_interval_ms_p50", "shard.skew", "core.begin_close_us_p50", "core.finish_ms_p50"}
	wired := []string{"wire.encode_ns_per_record", "wire.decode_ns_per_record", "wire.encode_allocs_per_interval",
		"wire.decode_allocs_per_interval", "wire.frame_bytes_per_record", "wire.ship_ack_ms_p50", "wire_bytes_per_record",
		"core.drain_open_us_p50", "core.absorb_open_ms_p50"}

	// quiet_ingest schedules no events, but a false alarm may still run
	// the extraction layers there, so zero is not required of them.
	if wl.classes != nil || wl.offline {
		positive(true, extraction...)
	}
	positive(true, "process.allocs_per_record", "process.alloc_bytes_per_record")
	positive(!wl.offline, ingest...)
	positive(wl.offline, "prefilter.rowform_scan_ns_per_record")
	positive(wl.shards > 1, sharded...)
	positive(wl.agents > 0, wired...)
	positive(wl.shards > 1 || wl.agents > 0, "detector.merge_ms_p50")
	positive(false, "netflow.decode_errors", "detector.missed_events")
}

// The command itself: one workload, the driver's flags, the result
// object on the last line with exactly the contract's keys.
func TestRunCommandOutput(t *testing.T) {
	defer func(sz sizes) { defaultSizes = sz }(defaultSizes)
	defaultSizes = smokeSizes
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "quiet_ingest", "--seed", "7", "--seconds", "0", "--trace", "0", "-tmp", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("result keys: %v", last)
	}
	res, fc, err := parseOutput(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != smokeSizes.Measured || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
	if fc["digest"] == "" {
		t.Errorf("no digest among the facts: %v", fc)
	}
	for _, want := range []string{"records_per_s", "records/s", "nproc", "GOMAXPROCS", "golden: not compared"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output does not mention %q", want)
		}
	}
	if code := run([]string{"--workload", "no_such"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"--trace", "3"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad -trace: exit %d, want 2", code)
	}
}
