package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is one compared pair.
type verdict struct {
	workload string
	metric   string
	a, b     float64
	rel      float64 // (b-a)/a, signed so that positive is worse
	bound    float64
	exact    bool
	ok       bool
}

// worse returns by what share of a the value b is worse, given the
// metric's direction (negative: better).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	rel := (b - a) / a
	if better == "higher" {
		rel = -rel
	}
	return rel
}

// compareResults holds b to a: every end-to-end metric of every
// workload may be worse by at most its bound; every per-layer count and
// every fact (report digests, alarm counts, frame bytes) must be equal.
func compareResults(a, b *resultsFile) []verdict {
	var out []verdict
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			out = append(out, verdict{workload: name, metric: "(workload missing)", exact: true})
			continue
		}
		if wa.EndToEnd != nil && wb.EndToEnd != nil {
			for _, d := range endToEnd {
				va, vb := wa.EndToEnd.Metrics[d.name].Value, wb.EndToEnd.Metrics[d.name].Value
				rel := worse(va, vb, d.better)
				out = append(out, verdict{workload: name, metric: d.name, a: va, b: vb, rel: rel, bound: d.bound, ok: rel <= d.bound})
			}
		}
		if wa.PerLayer != nil && wb.PerLayer != nil {
			for _, d := range perLayer {
				if d.unit != "count" {
					continue
				}
				va, vb := wa.PerLayer.Metrics[d.name].Value, wb.PerLayer.Metrics[d.name].Value
				out = append(out, verdict{workload: name, metric: d.name, a: va, b: vb, exact: true, ok: va == vb})
			}
		}
		for _, k := range sortedKeys(wa.Facts) {
			if vb, both := wb.Facts[k]; both {
				out = append(out, verdict{workload: name, metric: "fact " + k, exact: true, ok: wa.Facts[k] == vb})
			}
		}
	}
	return out
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultsFile{}
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints the comparison of two result files and returns
// the exit code: 1 when any pair is outside its bound or any exact
// value differs.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bad := 0
	fmt.Fprintf(stdout, "%-18s %-40s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, v := range compareResults(a, b) {
		status := "ok"
		if !v.ok {
			status = "OUTSIDE"
			bad++
		}
		if v.exact {
			fmt.Fprintf(stdout, "%-18s %-40s %14g %14g %9s %7s %s\n", v.workload, v.metric, v.a, v.b, "", "exact", status)
		} else {
			fmt.Fprintf(stdout, "%-18s %-40s %14.6g %14.6g %+8.1f%% %6.0f%% %s\n", v.workload, v.metric, v.a, v.b, 100*v.rel, 100*v.bound, status)
		}
	}
	fmt.Fprintf(stdout, "%d pairs outside their bound\n", bad)
	if bad > 0 {
		return 1
	}
	return 0
}
