package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"anomalyx"
	"anomalyx/internal/flow"
)

// renderReport writes a canonical rendering of every report field
// except the KeepSuspicious forensic slice — the fields the determinism
// contract declares byte-identical across workers, shards, pipeline
// depth and agent/collector topology.
func renderReport(w io.Writer, rep *anomalyx.Report) {
	fmt.Fprintf(w, "interval=%d alarm=%v total=%d suspicious=%d minsup=%d cost=%v partial=%v\n",
		rep.Interval, rep.Alarm, rep.TotalFlows, rep.SuspiciousFlows, rep.MinSupport, rep.CostReduction, rep.Partial)
	fmt.Fprintf(w, "detection interval=%d alarm=%v\n", rep.Detection.Interval, rep.Detection.Alarm)
	for _, r := range rep.Detection.PerFeature {
		fmt.Fprintf(w, "%+v\n", r)
	}
	for _, k := range flow.AllFeatures {
		if vals := rep.Detection.Meta.Values(k); len(vals) > 0 {
			fmt.Fprintf(w, "meta %v=%v\n", k, vals)
		}
	}
	if rep.Mining != nil {
		fmt.Fprintf(w, "mining %+v\n", *rep.Mining)
	}
	fmt.Fprintf(w, "itemsets %+v\n", rep.ItemSets)
}

func renderString(rep *anomalyx.Report) string {
	var b bytes.Buffer
	renderReport(&b, rep)
	return b.String()
}

// digestReports is the SHA-256 over the canonical renderings, in order.
func digestReports(reps []*anomalyx.Report) string {
	h := sha256.New()
	for _, rep := range reps {
		renderReport(h, rep)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// facts are a run's exact, seed-determined outputs: report digests and
// counts that must repeat on every run of the same inputs.
type facts map[string]string

func (f facts) setInt(key string, v int) { f[key] = fmt.Sprint(v) }

// golden is the committed default-seed record of every workload's facts.
type golden struct {
	Seed  uint64           `json:"seed"`
	Sizes sizes            `json:"sizes"`
	Facts map[string]facts `json:"facts"` // by workload
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := &golden{}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g *golden) save(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// applies reports whether the golden record was taken on these inputs.
func (g *golden) applies(seed uint64, sz sizes) bool { return g.Seed == seed && g.Sizes == sz }

// diff lists the facts of workload wl that got differ from the golden
// ones. Facts only one side knows are not compared: the traced and the
// untraced run each produce a subset.
func (g *golden) diff(wl string, got facts) []string {
	var out []string
	for k, want := range g.Facts[wl] {
		if v, ok := got[k]; ok && v != want {
			out = append(out, fmt.Sprintf("%s: got %s, golden %s", k, v, want))
		}
	}
	sort.Strings(out)
	return out
}

// merge records got as workload wl's golden facts, keeping facts got
// does not carry.
func (g *golden) merge(wl string, got facts) {
	if g.Facts == nil {
		g.Facts = make(map[string]facts)
	}
	if g.Facts[wl] == nil {
		g.Facts[wl] = make(facts)
	}
	for k, v := range got {
		g.Facts[wl][k] = v
	}
}
