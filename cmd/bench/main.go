// Command bench is the repository's benchmark: one seeded harness from
// NetFlow bytes to item-sets. It generates every input from -seed,
// drives six workloads through the surfaces a deployment uses
// (netflow.Reader -> Engine.SubmitBatch -> Reports; ExtractOffline;
// NewAgent and wire.Collector.Serve over loopback), checks every report
// against a reference computation, and prints every metric by name with
// its unit. With -trace 1 it repeats the workload as a traced run: an
// outside-in staged replay that times the calls into each layer's
// exported functions. See README.md beside this file.
//
//	bench -workload flood_extract -seed 20071203 -seconds 10 -trace 0
//	bench                          # all six workloads, untraced and traced
//	bench -compare a.json b.json   # hold two result files to the bounds
//
// Determinism: every input is a pure function of -seed, and the checked
// outputs (report digests, alarm counts, frame bytes) repeat exactly;
// the timings are the one deliberate wall-clock input, which is why the
// harness lives under cmd/, outside detlint's wall-clock rule.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// envInfo is the reference environment, stamped into every output.
type envInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func environment() envInfo {
	env := envInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	EndToEnd *result `json:"end_to_end,omitempty"`
	PerLayer *result `json:"per_layer,omitempty"`
	Facts    facts   `json:"facts,omitempty"`
}

// resultsFile is what a run of all workloads writes with -out and what
// -compare reads.
type resultsFile struct {
	Env       envInfo                    `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all six, each untraced and traced, in child processes)")
	seed := fs.Uint64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file as JSON lines")
	outPath := fs.String("out", "", "with all workloads: write the results to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two result files (arguments: a.json b.json) against the bounds")
	updateGolden := fs.String("update-golden", "", "record this run's exact outputs as golden facts in this file")
	tmp := fs.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for generated trace files (removed after the run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	// The reference box has two cores; the harness never runs more
	// submitters, connections or generator goroutines than that.
	runtime.GOMAXPROCS(2)
	if *name == "" {
		return runAll(*seed, *seconds, *outPath, *tmp, stdout, stderr)
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	opt := options{
		seed: *seed, seconds: *seconds, traced: *trace == 1, sz: defaultSizes,
		tmpRoot: *tmp, traceOut: *traceOut,
	}
	out, err := runWorkload(wl, opt)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := holdToGolden(wl, opt, out, *updateGolden); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if opt.traced {
		defs = perLayer
	}
	res := out.result(defs)
	report(stdout, wl, opt, out, defs, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// holdToGolden compares the run's exact outputs with the committed
// default-seed record, or rewrites the record when asked to.
func holdToGolden(wl *workload, opt options, out *outcome, update string) error {
	if update != "" {
		// Merge into the record on disk: the six workloads, traced and
		// untraced, are recorded by as many runs.
		g, err := loadGolden(update)
		if err != nil || !g.applies(opt.seed, opt.sz) {
			g = &golden{Seed: opt.seed, Sizes: opt.sz}
		}
		g.merge(wl.name, out.facts)
		return g.save(update)
	}
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return fmt.Errorf("embedded golden.json: %w", err)
	}
	if !g.applies(opt.seed, opt.sz) {
		out.note("golden: not compared (recorded for seed %d)", g.Seed)
		return nil
	}
	for _, d := range g.diff(wl.name, out.facts) {
		out.fail(1, "golden: %s", d)
	}
	return nil
}

// report prints the run for a reader — environment, inputs, every
// metric by name with its unit — then the facts, then the result object
// as the last line.
func report(w io.Writer, wl *workload, opt options, out *outcome, defs []metricDef, res result) {
	env := environment()
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", wl.name, opt.seed, opt.seconds, opt.traced)
	fmt.Fprintf(w, "env: %s, nproc %d, GOMAXPROCS %d, %s; closed loop, one submitter per engine", env.CPU, env.NumCPU, env.GOMAXPROCS, env.Go)
	if wl.agents > 0 {
		fmt.Fprintf(w, "; %d agents over loopback TCP, no real link", wl.agents)
	}
	fmt.Fprintln(w)
	for _, n := range out.notes {
		fmt.Fprintln(w, " ", n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-42s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	fmt.Fprintf(w, "operations: %d failed of %d attempted\n", res.Failed, res.Attempted)
	fb, _ := json.Marshal(out.facts) // a map of strings cannot fail to marshal
	fmt.Fprintf(w, "facts %s\n", fb)
	rb, _ := json.Marshal(res) // plain numbers and strings
	fmt.Fprintf(w, "%s\n", rb)
}

// runAll runs every workload untraced and traced, each in a fresh child
// process so that set-up time and peak memory are per workload.
func runAll(seed uint64, seconds float64, outPath, tmp string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	file := resultsFile{Env: environment(), Seed: seed, Seconds: seconds, Workloads: make(map[string]*workloadResult)}
	failed := false
	for i := range workloads {
		wl := &workloads[i]
		entry := &workloadResult{}
		file.Workloads[wl.name] = entry
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-tmp", tmp)
			cmd.Stderr = stderr
			b, runErr := cmd.Output()
			stdout.Write(b)
			fmt.Fprintln(stdout)
			res, fc, err := parseOutput(b)
			if err != nil || runErr != nil {
				fmt.Fprintf(stderr, "bench: %s trace %d: %v %v\n", wl.name, trace, runErr, err)
				failed = true
				continue
			}
			if trace == 0 {
				entry.EndToEnd, entry.Facts = res, fc
			} else {
				entry.PerLayer = res
				for k, v := range fc {
					entry.Facts[k] = v
				}
			}
			failed = failed || !res.Correct
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// parseOutput reads a child's output: the facts line and, last, the
// result object.
func parseOutput(b []byte) (*result, facts, error) {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	res, fc := &result{}, facts{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, nil, fmt.Errorf("no result object on the last line: %w", err)
	}
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "facts "); ok {
			if err := json.Unmarshal([]byte(rest), &fc); err != nil {
				return nil, nil, err
			}
		}
	}
	return res, fc, nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
