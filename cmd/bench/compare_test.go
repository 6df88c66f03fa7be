package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultsWith builds a result file with one workload whose end-to-end
// metrics are scaled from a common baseline.
func resultsWith(scale map[string]float64, alarms float64, digest string) *resultsFile {
	base := map[string]float64{"setup_s": 0.5, "records_per_s": 1e6, "close_ms_p50": 16, "cpu_us_per_record": 1, "peak_rss_mb": 20}
	e2e := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		f := 1.0
		if s, ok := scale[d.name]; ok {
			f = s
		}
		e2e.Metrics[d.name] = metric{Value: base[d.name] * f, Unit: d.unit}
	}
	layers := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{
		"detector.alarm_intervals": {Value: alarms, Unit: "count"},
		"mining.mine_ms_p50":       {Value: 11 * scale["mining"], Unit: "ms"}, // a timing: never compared
	}}
	return &resultsFile{Seed: defaultSeed, Workloads: map[string]*workloadResult{
		"flood_extract": {EndToEnd: e2e, PerLayer: layers, Facts: facts{"digest": digest}},
	}}
}

func outside(vs []verdict) []string {
	var out []string
	for _, v := range vs {
		if !v.ok {
			out = append(out, v.metric)
		}
	}
	return out
}

// boundOf is the declared bound of an end-to-end metric.
func boundOf(t *testing.T, name string) float64 {
	t.Helper()
	for _, d := range endToEnd {
		if d.name == name {
			return d.bound
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return 0
}

func TestCompareVerdicts(t *testing.T) {
	a := resultsWith(nil, 35, "abc")
	// Scales that put a metric just inside and clearly outside its bound,
	// for metrics where lower (times) and higher (rates) is better.
	in := func(name string) float64 { return 1 + 0.8*boundOf(t, name) }
	out := func(name string) float64 { return 1 + 1.5*boundOf(t, name) }
	for _, tc := range []struct {
		name string
		b    *resultsFile
		want []string
	}{
		{"identical", resultsWith(nil, 35, "abc"), nil},
		{"within bounds", resultsWith(map[string]float64{"records_per_s": 1 / in("records_per_s"), "close_ms_p50": in("close_ms_p50"), "setup_s": in("setup_s"), "mining": 3}, 35, "abc"), nil},
		{"better is never outside", resultsWith(map[string]float64{"records_per_s": 2, "close_ms_p50": 0.3, "peak_rss_mb": 0.5}, 35, "abc"), nil},
		{"slower throughput", resultsWith(map[string]float64{"records_per_s": 1 / out("records_per_s")}, 35, "abc"), []string{"records_per_s"}},
		{"slower close", resultsWith(map[string]float64{"close_ms_p50": out("close_ms_p50")}, 35, "abc"), []string{"close_ms_p50"}},
		{"more memory", resultsWith(map[string]float64{"peak_rss_mb": out("peak_rss_mb")}, 35, "abc"), []string{"peak_rss_mb"}},
		{"a count moved", resultsWith(nil, 34, "abc"), []string{"detector.alarm_intervals"}},
		{"a digest moved", resultsWith(nil, 35, "abd"), []string{"fact digest"}},
	} {
		if got := outside(compareResults(a, tc.b)); strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: outside = %v, want %v", tc.name, got, tc.want)
		}
	}
	missing := &resultsFile{Workloads: map[string]*workloadResult{}}
	if got := outside(compareResults(a, missing)); len(got) != 1 {
		t.Errorf("a missing workload must be reported: %v", got)
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultsFile) string {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", resultsWith(nil, 35, "abc"))
	same := write("same.json", resultsWith(map[string]float64{"records_per_s": 0.97}, 35, "abc"))
	slow := write("slow.json", resultsWith(map[string]float64{"records_per_s": 0.5}, 35, "abc"))

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", a, same}, &stdout, &stderr); code != 0 {
		t.Errorf("two runs within their bounds: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "records_per_s") || !strings.Contains(stdout.String(), "bound") {
		t.Errorf("the table names neither the metric nor its bound:\n%s", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-compare", a, slow}, &stdout, &stderr); code != 1 {
		t.Errorf("half the throughput: exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "OUTSIDE") {
		t.Errorf("the table does not flag the pair:\n%s", stdout.String())
	}
	if code := run([]string{"-compare", a}, &stdout, &stderr); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
	if code := run([]string{"-compare", a, filepath.Join(dir, "absent.json")}, &stdout, &stderr); code != 2 {
		t.Errorf("an absent file: exit %d, want 2", code)
	}
}
