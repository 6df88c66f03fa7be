// Sasser: the union-vs-intersection argument of §II-A on a multistage
// worm. The three propagation stages (port-445 scans, port-9996 backdoor
// connections, 16 kB executable downloads) have pairwise flow-disjoint
// meta-data: intersecting the meta-data selects zero flows, while the
// union covers every stage and lets Apriori summarize each one.
//
// The scenario is seeded, so the printed comparison is reproducible run
// to run.
//
// Run with: go run ./examples/sasser
package main

import (
	"fmt"
	"log"

	"anomalyx"
	"anomalyx/internal/prefilter"
	"anomalyx/internal/tracegen"
)

func main() {
	d := tracegen.SasserScenario(20071203, 20000)
	fmt.Printf("interval: %d flows total; worm stages: scans=%d backdoor=%d downloads=%d\n\n",
		len(d.Flows), d.StageFlows[0], d.StageFlows[1], d.StageFlows[2])

	// The alarm meta-data a detector bank would provide: the SYN-scan
	// port, the backdoor port, and the characteristic flow size.
	meta := anomalyx.NewMetaData()
	for _, stage := range d.Meta {
		for _, fv := range stage {
			meta.Add(fv.Kind, fv.Value)
			fmt.Printf("meta-data: %s\n", fv)
		}
	}

	rep, err := anomalyx.ExtractOffline(anomalyx.Config{MinSupport: 400}, d.Flows, meta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- union prefilter ---\n")
	fmt.Printf("suspicious flows: %d\n", rep.SuspiciousFlows)
	fmt.Printf("maximal item-sets (minsup %d):\n", rep.MinSupport)
	for i := range rep.ItemSets {
		fmt.Println("  ", rep.ItemSets[i].String())
	}

	// The intersection is only the §II-A baseline, so it is counted
	// here, not run through the pipeline.
	fmt.Printf("\n--- intersection prefilter ---\n")
	n := prefilter.Count(prefilter.Intersection{}, meta, d.Flows)
	fmt.Printf("suspicious flows: %d\n", n)
	if n == 0 {
		fmt.Println("nothing selected: the multistage anomaly is invisible to this strategy")
	}
}
