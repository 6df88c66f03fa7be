// DDoS extraction walk-through: run the pipeline over the synthetic
// backbone trace until the first DDoS event, then show each stage of the
// extraction — the per-feature alarms, the voted meta-data, the
// prefiltering ratio, and the final item-sets — the way §II's Fig. 3
// presents the system.
//
// The trace is seeded, so the printed output is reproducible run to
// run.
//
// Run with: go run ./examples/ddos
package main

import (
	"fmt"
	"log"

	"anomalyx"
	"anomalyx/internal/experiments"
	"anomalyx/internal/tracegen"
)

func main() {
	trc := experiments.TraceConfig(experiments.Quick)
	gen := tracegen.New(trc)

	// Find the first DDoS or Flooding event in the ground truth.
	var target *tracegen.GroundTruthEvent
	for _, ev := range gen.GroundTruth() {
		ev := ev
		if ev.Class == tracegen.DDoS || ev.Class == tracegen.Flooding {
			if target == nil || ev.Start < target.Start {
				target = &ev
			}
		}
	}
	if target == nil {
		log.Fatal("no DDoS/flooding event in schedule")
	}
	fmt.Printf("ground truth: %s at interval %d (~%d flows/interval)\n\n",
		target.Name, target.Start, target.Flows)

	// Run the parallel extraction path end to end: Workers = 0 fans the
	// detector bank and the prefilter scan out over GOMAXPROCS
	// goroutines. Reports are byte-identical to the sequential defaults:
	// every parallel stage merges its results deterministically.
	cfg := experiments.PipelineConfig(experiments.Quick)
	cfg.Workers = 0
	p, err := anomalyx.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	var rep *anomalyx.Report
	for idx := 0; idx <= target.Start; idx++ {
		if rep, err = p.ProcessInterval(gen.Interval(idx)); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("interval %d: %d flows, alarm=%v\n", target.Start, rep.TotalFlows, rep.Alarm)
	if !rep.Alarm {
		log.Fatal("event not detected — unexpected for the default seed")
	}

	fmt.Println("\nper-feature detector outcomes:")
	for _, fres := range rep.Detection.PerFeature {
		status := "quiet"
		if fres.Alarm {
			status = "ALARM"
		}
		fmt.Printf("  %-8s %s  threshold=%.4f  voted values=%d\n",
			fres.Feature, status, fres.Threshold, len(fres.Meta))
		for c, cres := range fres.Clones {
			fmt.Printf("      clone %d: KL=%.4f diff=%+.4f alarm=%v\n",
				c, cres.KL, cres.Diff, cres.Alarm)
		}
	}

	fmt.Println("\nconsolidated meta-data (union across detectors):")
	for _, kind := range []anomalyx.FeatureKind{
		anomalyx.SrcIP, anomalyx.DstIP, anomalyx.SrcPort, anomalyx.DstPort, anomalyx.Packets,
	} {
		vals := rep.Detection.Meta.Values(kind)
		if len(vals) == 0 {
			continue
		}
		fmt.Printf("  %s: %d value(s)\n", kind, len(vals))
	}

	fmt.Printf("\nprefilter: %d of %d flows suspicious (%.1f%%)\n",
		rep.SuspiciousFlows, rep.TotalFlows,
		100*float64(rep.SuspiciousFlows)/float64(rep.TotalFlows))
	fmt.Printf("mining: minsup=%d -> %d maximal item-sets (R = %.0fx)\n\n",
		rep.MinSupport, len(rep.ItemSets), rep.CostReduction)

	for i := range rep.ItemSets {
		marker := "  "
		fvs := make([]tracegen.FeatureValue, len(rep.ItemSets[i].Items))
		for j, it := range rep.ItemSets[i].Items {
			fvs[j] = tracegen.FeatureValue{Kind: it.Kind, Value: it.Value}
		}
		if target.Matches(fvs) {
			marker = "TP" // matches the injected event's signature
		}
		fmt.Printf("%s %s\n", marker, rep.ItemSets[i].String())
	}
}
