package anomalyx_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"anomalyx"
	"anomalyx/internal/core"
	"anomalyx/internal/hash"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/stats"
	"anomalyx/internal/tracegen"
)

// hashFunc and newBenchPipeline are shared with bench_test.go.
func hashFunc() hash.Func { return hash.New(7) }

func newBenchPipeline() (*anomalyx.Pipeline, error) {
	return anomalyx.NewPipeline(anomalyx.Config{
		Detector: anomalyx.DetectorConfig{Bins: 1024, TrainIntervals: 4},
	})
}

func TestFacadePipelineEndToEnd(t *testing.T) {
	p, err := anomalyx.NewPipeline(anomalyx.Config{
		Detector:        anomalyx.DetectorConfig{Bins: 256, TrainIntervals: 6},
		RelativeSupport: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := stats.NewRand(3)
	benign := func() anomalyx.Flow {
		return anomalyx.Flow{
			SrcAddr: uint32(r.IntN(50000)), DstAddr: uint32(r.IntN(2000)),
			SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1500)),
			Protocol: 6, Packets: uint32(1 + r.IntN(20)), Bytes: uint64(100 + r.IntN(2000)),
		}
	}
	var rep *anomalyx.Report
	for i := 0; i < 15; i++ {
		for j := 0; j < 8000; j++ {
			p.Observe(benign())
		}
		if rep, err = p.EndInterval(); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 8000; j++ {
		p.Observe(benign())
	}
	for j := 0; j < 4000; j++ {
		p.Observe(anomalyx.Flow{
			SrcAddr: uint32(r.IntN(1 << 28)), DstAddr: 42, DstPort: 31337,
			SrcPort: uint16(r.IntN(60000)), Protocol: 6, Packets: 1, Bytes: 40,
		})
	}
	rep, err = p.EndInterval()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Alarm {
		t.Fatal("facade pipeline missed the flood")
	}
	found := false
	for i := range rep.ItemSets {
		for _, it := range rep.ItemSets[i].Items {
			if it.Kind == anomalyx.DstPort && it.Value == 31337 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("flood not summarized: %v", rep.ItemSets)
	}
}

func TestFacadeOfflineExtraction(t *testing.T) {
	meta := anomalyx.NewMetaData()
	meta.Add(anomalyx.DstPort, 9996)
	flows := make([]anomalyx.Flow, 0, 1000)
	for i := 0; i < 600; i++ {
		flows = append(flows, anomalyx.Flow{DstPort: 9996, Protocol: 6, Packets: 2, Bytes: 96})
	}
	for i := 0; i < 400; i++ {
		flows = append(flows, anomalyx.Flow{DstPort: 80, Protocol: 6, Packets: 5, Bytes: 700})
	}
	rep, err := anomalyx.ExtractOffline(anomalyx.Config{MinSupport: 100}, flows, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SuspiciousFlows != 600 {
		t.Errorf("suspicious = %d, want 600", rep.SuspiciousFlows)
	}
	if len(rep.ItemSets) != 1 || rep.ItemSets[0].Support != 600 {
		t.Errorf("item-sets: %v", rep.ItemSets)
	}
	// The facade wraps core's offline call: with a nil Miner both mine
	// with the built-in Eclat, so the reports must not tell them apart.
	builtin, err := core.ExtractOffline(core.Config{MinSupport: 100}, flows, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, builtin) {
		t.Errorf("facade default mined\n%+v\nbuilt-in miner mined\n%+v", rep.Mining, builtin.Mining)
	}
}

// TestFacadeOfflineTableII runs the facade's offline call on the §II-B
// worked example (under -short every 8th flow, at an eighth of the
// minimum support). The default miner must report exactly what the
// paper's Apriori and FP-Growth report, and stay on the columnar path:
// a row-form miner allocates a few times per transaction, hundreds of
// thousands in all.
func TestFacadeOfflineTableII(t *testing.T) {
	d := tracegen.TableIIScenario(20071203)
	flows, cfg := d.Flows, anomalyx.Config{MinSupport: d.MinSupport}
	if testing.Short() {
		const sample = 8
		flows = nil
		for i := 0; i < len(d.Flows); i += sample {
			flows = append(flows, d.Flows[i])
		}
		cfg.MinSupport /= sample
	}
	meta := anomalyx.NewMetaData()
	for _, port := range []uint64{7000, 80, 9022, 25} {
		meta.Add(anomalyx.DstPort, port)
	}

	rep, err := anomalyx.ExtractOffline(cfg, flows, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ItemSets) == 0 {
		t.Fatal("no item-sets")
	}
	for _, m := range []anomalyx.Miner{apriori.New(), anomalyx.FPGrowth()} {
		mcfg := cfg
		mcfg.Miner = m
		ref, err := anomalyx.ExtractOffline(mcfg, flows, meta)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Errorf("default miner reported\n%+v\n%s reported\n%+v", rep.Mining, m.Name(), ref.Mining)
		}
	}

	const maxAllocs = 10000
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := anomalyx.ExtractOffline(cfg, flows, meta); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("default offline extraction of %d flows allocated %.0f times, want at most %d", len(flows), allocs, maxAllocs)
	}
}

func TestFacadeMiners(t *testing.T) {
	if name := anomalyx.FPGrowth().Name(); name != "fp-growth" {
		t.Errorf("FPGrowth reports %q", name)
	}
}

func TestFacadeNetFlowIO(t *testing.T) {
	const bootMs = int64(1700000000000)
	var buf bytes.Buffer
	w := anomalyx.NewFlowWriter(&buf, bootMs)
	in := anomalyx.Flow{
		SrcAddr: 1, DstAddr: 2, SrcPort: 3, DstPort: 4, Protocol: 6,
		Packets: 5, Bytes: 600, Start: bootMs + 1000, End: bootMs + 2000,
	}
	if err := w.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := anomalyx.NewFlowReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != in {
		t.Errorf("round trip: %+v", got)
	}
}

func TestFacadeV9RoundTrip(t *testing.T) {
	const bootMs = int64(1700000000000)
	in := []anomalyx.Flow{{
		SrcAddr: 10, DstAddr: 20, SrcPort: 30, DstPort: 40, Protocol: 6,
		TCPFlags: 2, Packets: 5, Bytes: 500, Start: bootMs + 100, End: bootMs + 200,
	}}
	pkt, err := anomalyx.NewV9Encoder(bootMs, 559).Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := anomalyx.NewV9Decoder().Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != in[0] {
		t.Errorf("v9 facade round trip: %+v", got)
	}
}

// TestAgentRejectsBoundaryZero: a pre-epoch stream whose first interval
// ends exactly at grid boundary 0 must not lose that interval in agent
// mode. The wire protocol carries positive grid boundaries only, so the
// agent session has to fail loudly; a local engine over the same records
// would report both flows.
func TestAgentRejectsBoundaryZero(t *testing.T) {
	cfg := anomalyx.Config{Detector: anomalyx.DetectorConfig{Bins: 64, TrainIntervals: 2}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coll, err := anomalyx.NewCollectorWithConfig(cfg, anomalyx.CollectorConfig{Agents: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	collected := make(chan int, 16)
	serveErr := make(chan error, 1)
	go func() {
		defer close(collected)
		serveErr <- coll.Serve(context.Background(), ln, func(rep *anomalyx.Report) error {
			collected <- rep.TotalFlows
			return nil
		})
	}()

	sess, err := anomalyx.NewAgent(
		anomalyx.EngineConfig{Pipeline: cfg, IntervalLen: time.Second},
		anomalyx.AgentConfig{Addr: ln.Addr().String(), Shards: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range sess.Reports() {
		}
	}()
	_, submitErr := sess.SubmitBatch([]anomalyx.Flow{
		{DstPort: 1, Start: -500}, // first interval ends at boundary 0
		{DstPort: 2, Start: 200},  // crosses 0: that interval closes
	})
	closeErr := sess.Close()

	flows := 0
	select {
	case <-serveErr:
		for n := range collected {
			flows += n
		}
	case <-time.After(10 * time.Second):
		t.Fatal("collector did not finish after the agent closed")
	}
	err = closeErr
	if submitErr != nil {
		err = submitErr
	}
	if err == nil {
		t.Fatalf("agent session reported no error; the collector's reports account for %d of 2 flows", flows)
	}
	if !strings.Contains(err.Error(), "positive grid boundaries") {
		t.Fatalf("error %q does not name the positive-boundary rule", err)
	}
}

// TestAgentRecyclingDisjointIntervals: an agent session reuses the
// memory of each drained interval for the next one (the engine gives it
// back after the ship), and the collector decodes every frame into the
// memory of an absorbed one. Two consecutive intervals over disjoint
// value sets — the first larger, so that stale entries would outlast a
// shorter second — must yield exactly an in-process engine's reports:
// nothing of interval 1 may leak into interval 2's frame or absorb.
func TestAgentRecyclingDisjointIntervals(t *testing.T) {
	cfg := anomalyx.Config{Detector: anomalyx.DetectorConfig{Bins: 64, TrainIntervals: 2}}
	var batches [][]anomalyx.Flow
	for iv, n := range []int{300, 90} {
		batch := make([]anomalyx.Flow, n)
		for i := range batch {
			// Interval 0 draws every feature from one range, interval 1
			// from a disjoint one.
			base := uint32(iv * 50_000)
			batch[i] = anomalyx.Flow{
				SrcAddr: 0x0a000000 + base + uint32(i), DstAddr: 0xc0a80000 + base + uint32(i%40),
				SrcPort: uint16(1024 + base/4 + uint32(i)), DstPort: uint16(80 + base/4 + uint32(i%7)),
				Protocol: 6, Packets: base + uint32(1+i%9), Bytes: 40,
				Start: int64(iv*1000 + i), End: int64(iv*1000 + i + 1),
			}
		}
		batches = append(batches, batch)
	}
	render := func(reps []*anomalyx.Report) []string {
		var out []string
		for _, rep := range reps {
			out = append(out, fmt.Sprintf("%+v", *rep))
		}
		return out
	}

	eng, err := anomalyx.NewEngine(anomalyx.EngineConfig{Pipeline: cfg, IntervalLen: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var local []*anomalyx.Report
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			local = append(local, rep)
		}
	}()
	for _, b := range batches {
		if _, err := eng.SubmitBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	for _, parts := range []int{1, 2} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coll, err := anomalyx.NewCollectorWithConfig(cfg, anomalyx.CollectorConfig{Agents: 1})
		if err != nil {
			t.Fatal(err)
		}
		var wired []*anomalyx.Report
		serveErr := make(chan error, 1)
		go func() {
			serveErr <- coll.Serve(context.Background(), ln, func(rep *anomalyx.Report) error {
				wired = append(wired, rep)
				return nil
			})
		}()
		sess, err := anomalyx.NewAgent(
			anomalyx.EngineConfig{Pipeline: cfg, IntervalLen: time.Second},
			anomalyx.AgentConfig{Addr: ln.Addr().String(), Shards: parts, ReplayBuffer: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range sess.Reports() {
			}
		}()
		// A frame the collector refuses is replayed on every redial, and
		// the session never ends: bound the wait instead of hanging.
		finished := make(chan error, 1)
		go func() {
			for _, b := range batches {
				if _, err := sess.SubmitBatch(b); err != nil {
					finished <- err
					return
				}
			}
			if err := sess.Close(); err != nil {
				finished <- err
				return
			}
			finished <- <-serveErr
		}()
		select {
		case err := <-finished:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("partitions=%d: the session did not finish", parts)
		}
		coll.Close()
		if len(wired) != 2 || !reflect.DeepEqual(wired, local) {
			t.Fatalf("partitions=%d: collector reports differ from the in-process run:\n%q\nvs\n%q",
				parts, render(wired), render(local))
		}
	}
}
