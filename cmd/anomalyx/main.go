// Command anomalyx runs the anomaly-extraction pipeline over a NetFlow v5
// trace file (as written by cmd/tracegen or any collector dumping v5
// export packets) and reports, per measurement interval, the detector
// alarms and the extracted maximal item-sets.
//
// Usage:
//
//	anomalyx -in trace.nf5 [-interval 15m] [-minsup N | -relsup 0.05]
//	         [-bins 1024] [-clones 3] [-votes 3] [-alpha 3] [-top 20]
//	         [-shards N] [-workers N] [-pipeline-depth N] [-v]
//
//	anomalyx -mode agent -in part0.nf5 -connect host:4711 -agent-id 0 [-shards N] ...
//	anomalyx -mode collector -listen :4711 -agents 2 [-hold-timeout 30s] [-checkpoint f [-resume]] ...
//	anomalyx -mode relay -listen :4712 -connect root:4711 -agent-id 0 -agents 2 ...
//
// With -shards N > 1 the engine's pipeline hash-partitions flows across
// N partitions and merges their state at every interval close; with
// -workers N != 1 each partition additionally fans its
// detector updates and prefilter scan out over N goroutines. -workers 0
// means GOMAXPROCS divided by the shard count, at least 1, in every
// mode. Extraction prefilters with the union of the alarm meta-data
// (§II-A) and mines the survivors with the built-in columnar Eclat.
// Reports are byte-identical to an unsharded single-worker run in every
// combination. With -pipeline-depth N > 1 the engine additionally
// overlaps each interval's close (detection + extraction) with the next
// interval's ingestion, keeping up to N intervals open at once; reports
// still arrive in interval order, byte-identical to -pipeline-depth 1.
// Agents ship each interval inline and reject -pipeline-depth > 1.
//
// The agent and collector modes split that same computation across
// machines: each agent streams its own trace partition through a local
// (optionally -shards-sharded) pipeline and ships every measurement
// interval's drained histogram state and flow buffer to the collector,
// which absorbs the snapshots in agent-ID order and runs detection and
// extraction exactly as a single process would — reports stay
// byte-identical. Detection parameters (-bins, -clones, -votes, -alpha,
// -train, and the detector seed) must match between agents and
// collector; the connection handshake enforces this with a config
// digest. See docs/ARCHITECTURE.md, "Distributed deployment".
//
// A collector or relay waits for a missing agent's frame up to
// -hold-timeout, then closes the interval without the agent and prints
// the missing leaves on its PARTIAL line; the agent is dead until it
// ships again or reconnects. The default, 0, waits forever: one silent
// agent then holds every interval, and every other agent's Close with it.
//
// Relay mode federates collectors into a tree: a relay accepts -agents
// child connections on -listen (leaves or deeper relays), merges their
// interval frames without running detection, and ships the merged
// interval to its parent at -connect as agent -agent-id. Only the
// tree's root (a plain collector) emits reports, still byte-identical
// to a flat deployment over the same leaves. See docs/ARCHITECTURE.md,
// "Federation".
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"anomalyx"
	"anomalyx/internal/mining"
)

// options carries the parsed command line.
type options struct {
	mode     string
	in       string
	connect  string
	listen   string
	agentID  int
	leafBase int
	interval time.Duration
	minsup   int
	relsup   float64
	bins     int
	clones   int
	votes    int
	alpha    float64
	train    int
	shards   int
	workers  int
	depth    int
	top      int
	verbose  bool

	// coll configures the collector session of the collector and relay
	// modes, retry the redials of the agent and relay modes.
	coll  anomalyx.CollectorConfig
	retry anomalyx.RetryConfig
}

// parseArgs parses the command line (without the program name) into
// options. It returns flag.ErrHelp for -h.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("anomalyx", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.mode, "mode", "run", "run (local), agent (ship intervals to a collector), collector (merge agents), or relay (merge children and ship upward)")
	fs.StringVar(&o.in, "in", "", "input NetFlow v5 trace file (required for run and agent modes)")
	fs.StringVar(&o.connect, "connect", "", "upstream collector address to ship to (agent and relay modes)")
	fs.StringVar(&o.listen, "listen", "", "address to accept child connections on (collector and relay modes)")
	fs.IntVar(&o.coll.Agents, "agents", 0, "number of child connections to accept (collector and relay modes)")
	fs.IntVar(&o.agentID, "agent-id", -1, "this node's agent ID on its upstream, in [0, upstream fan-in) (agent and relay modes)")
	fs.IntVar(&o.leafBase, "leaf-base", 0, "first global leaf ID under this relay (0 = agent-id times agents, the balanced-tree numbering) (relay mode)")
	fs.DurationVar(&o.interval, "interval", 15*time.Minute, "measurement interval length")
	fs.IntVar(&o.minsup, "minsup", 0, "absolute minimum support (0 = use -relsup)")
	fs.Float64Var(&o.relsup, "relsup", 0.05, "minimum support as a fraction of the suspicious flows")
	fs.IntVar(&o.bins, "bins", 1024, "histogram bins k")
	fs.IntVar(&o.clones, "clones", 3, "histogram clones n")
	fs.IntVar(&o.votes, "votes", 3, "votes l required to keep a feature value")
	fs.Float64Var(&o.alpha, "alpha", 3, "MAD threshold multiplier")
	fs.IntVar(&o.train, "train", 12, "training intervals before alarms may fire")
	fs.IntVar(&o.shards, "shards", 1, "hash-partitioned pipeline shards (0 = GOMAXPROCS)")
	fs.IntVar(&o.workers, "workers", 0, "per-pipeline worker goroutines for the detector and prefilter fan-out (0 = GOMAXPROCS / shards, at least 1; 1 = sequential)")
	fs.IntVar(&o.depth, "pipeline-depth", 1, "measurement intervals open at once: 1 closes intervals inline, N > 1 overlaps up to N-1 interval closes with ingestion (reports stay byte-identical) (run mode)")
	fs.IntVar(&o.top, "top", 20, "item-sets to print per alarm")
	fs.BoolVar(&o.verbose, "v", false, "print every interval, not only alarms")
	fs.StringVar(&o.coll.MetricsAddr, "metrics", "", "serve expvar session metrics over HTTP on this address (collector and relay modes)")
	fs.DurationVar(&o.coll.HoldTimeout, "hold-timeout", 0, "how long an interval waits for a missing frame, from an agent that never connected, a down one, or a connected one that has gone silent, before it closes without the agent (0 = forever: one silent agent then holds every interval, and every other agent's Close with it) (collector and relay modes)")
	fs.StringVar(&o.coll.CheckpointPath, "checkpoint", "", "write a durable session checkpoint to this path after every interval (collector and relay modes)")
	fs.BoolVar(&o.coll.Resume, "resume", false, "resume the session from -checkpoint instead of starting fresh (collector and relay modes)")
	fs.IntVar(&o.retry.MaxAttempts, "retry-max", 0, "redial attempts per lost collector connection (0 = default 8, negative disables) (agent and relay modes)")
	fs.DurationVar(&o.retry.BaseDelay, "retry-base", 0, "base redial backoff delay (0 = default 100ms) (agent and relay modes)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.depth < 1 {
		return nil, fmt.Errorf("anomalyx: -pipeline-depth must be >= 1, got %d", o.depth)
	}
	if o.top < 0 {
		return nil, fmt.Errorf("anomalyx: -top must be >= 0, got %d", o.top)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("anomalyx: -workers must be >= 0, got %d", o.workers)
	}
	if o.interval < 0 {
		return nil, fmt.Errorf("anomalyx: -interval must be >= 0, got %v", o.interval)
	}
	if o.coll.HoldTimeout < 0 {
		return nil, fmt.Errorf("anomalyx: -hold-timeout must be >= 0, got %v", o.coll.HoldTimeout)
	}
	switch o.mode {
	case "run", "agent":
		if o.in == "" {
			return nil, fmt.Errorf("anomalyx: -in is required")
		}
	case "collector", "relay":
		if o.listen == "" {
			return nil, fmt.Errorf("anomalyx: %s mode requires -listen", o.mode)
		}
		if o.coll.Agents < 1 {
			return nil, fmt.Errorf("anomalyx: %s mode requires -agents >= 1", o.mode)
		}
		if o.coll.Resume && o.coll.CheckpointPath == "" {
			return nil, fmt.Errorf("anomalyx: -resume requires -checkpoint")
		}
	default:
		return nil, fmt.Errorf("anomalyx: unknown mode %q", o.mode)
	}
	if o.mode == "agent" || o.mode == "relay" {
		if o.connect == "" {
			return nil, fmt.Errorf("anomalyx: %s mode requires -connect", o.mode)
		}
		if o.agentID < 0 {
			return nil, fmt.Errorf("anomalyx: %s mode requires -agent-id >= 0", o.mode)
		}
	}
	if o.mode == "agent" && o.depth > 1 {
		// An agent ships each interval inline; there is no close to overlap.
		return nil, fmt.Errorf("anomalyx: agent mode closes intervals inline; -pipeline-depth must be 1, got %d", o.depth)
	}
	if o.leafBase < 0 {
		return nil, fmt.Errorf("anomalyx: -leaf-base must be >= 0, got %d", o.leafBase)
	}
	return o, nil
}

// engineConfig resolves the options into the streaming-engine
// configuration.
func (o *options) engineConfig() anomalyx.EngineConfig {
	cfg := anomalyx.Config{
		Detector: anomalyx.DetectorConfig{
			Bins: o.bins, Clones: o.clones, Votes: o.votes,
			Alpha: o.alpha, TrainIntervals: o.train,
		},
		MinSupport:      o.minsup,
		RelativeSupport: o.relsup,
		Workers:         o.workers,
	}
	return anomalyx.EngineConfig{
		Pipeline:      cfg,
		IntervalLen:   o.interval,
		PipelineDepth: o.depth,
	}
}

// run streams the v5 trace from in through the engine and prints the
// per-interval reports to out; it returns the interval and alarm counts.
func run(o *options, in io.Reader, out io.Writer) (intervals, alarms int, err error) {
	engCfg := o.engineConfig()
	var eng *anomalyx.Engine
	if o.shards == 1 {
		eng, err = anomalyx.NewEngine(engCfg)
	} else {
		eng, err = anomalyx.NewShardedEngine(engCfg, o.shards)
	}
	if err != nil {
		return 0, 0, err
	}

	// Consume interval reports concurrently with trace parsing; the
	// engine's bounded buffers keep the two sides in step.
	//detlint:ok goroutines -- single consumer of the engine's ordered Reports channel; joined via done before return
	done := make(chan error, 1)
	//detlint:ok goroutines -- see above: one reader, sequenced by the Reports stream (contract: fan-ins are sequenced)
	go func() {
		for rep := range eng.Reports() {
			if rep.Alarm || o.verbose {
				printReport(out, rep, intervals, o.top)
			}
			if rep.Alarm {
				alarms++
			}
			intervals++
		}
		// Reports closes early on a pipeline error; surface it now
		// rather than after the (possibly endless) input drains.
		done <- eng.Err()
	}()

	// Read in batches: SubmitBatch skips the per-record channel overhead
	// (the intervals-closed return is consumed by the report goroutine
	// via the Reports channel, so it is not needed here).
	submitErr := submitTrace(eng, in)
	// Always close the engine and join the report consumer before
	// returning: the counts it writes are only settled after done.
	closeErr := eng.Close()
	repErr := <-done
	switch {
	case submitErr != nil:
		err = submitErr
	case closeErr != nil:
		err = closeErr
	default:
		err = repErr
	}
	return intervals, alarms, err
}

// submitTrace streams the v5 trace from in into the engine in batches
// of 512 records.
func submitTrace(eng *anomalyx.Engine, in io.Reader) error {
	r := anomalyx.NewFlowReader(in)
	batch := make([]anomalyx.Flow, 0, 512)
	flush := func() error {
		_, err := eng.SubmitBatch(batch)
		batch = batch[:0]
		return err
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		batch = append(batch, rec)
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// runAgent streams the trace through a local pipeline that drains and
// ships every interval to the collector at o.connect; it returns the
// number of intervals shipped. No detection happens here — the stub
// per-interval reports carry only flow counts.
func runAgent(o *options, in io.Reader, out io.Writer) (intervals int, err error) {
	sess, err := anomalyx.NewAgent(o.engineConfig(), anomalyx.AgentConfig{
		Addr:    o.connect,
		AgentID: o.agentID,
		Shards:  o.shards,
		Retry:   o.retry,
	})
	if err != nil {
		return 0, err
	}
	//detlint:ok goroutines -- single consumer of the engine's ordered Reports channel; joined via done before return
	done := make(chan error, 1)
	//detlint:ok goroutines -- see above: one reader, sequenced by the Reports stream (contract: fan-ins are sequenced)
	go func() {
		for rep := range sess.Reports() {
			if o.verbose {
				fmt.Fprintf(out, "interval %4d: %7d flows shipped\n", intervals, rep.TotalFlows)
			}
			intervals++
		}
		done <- sess.Err()
	}()
	submitErr := submitTrace(sess.Engine, in)
	// Session close flushes the engine, then sends Bye trailing the
	// final interval.
	closeErr := sess.Close()
	repErr := <-done
	for _, e := range []error{submitErr, closeErr, repErr} {
		if e != nil {
			return intervals, e
		}
	}
	return intervals, nil
}

// serveCollector accepts o.coll.Agents connections on ln and prints the
// merged per-interval reports, exactly as a local run would.
func serveCollector(o *options, ln net.Listener, out io.Writer) (intervals, alarms int, err error) {
	coll, err := anomalyx.NewCollectorWithConfig(o.engineConfig().Pipeline, o.coll)
	if err != nil {
		return 0, 0, err
	}
	defer coll.Close()
	if o.coll.MetricsAddr != "" {
		// Also publish on the process-global expvar registry, so a
		// /debug/vars scraper pointed at -metrics sees the session under
		// a stable name.
		expvar.Publish("anomalyx.collector", coll.Metrics())
	}
	err = coll.Serve(context.Background(), ln, func(rep *anomalyx.Report) error {
		if rep.Alarm || o.verbose {
			// Number by the report's own interval index, not a session
			// counter: a collector resumed from a checkpoint continues the
			// original numbering.
			printReport(out, rep, rep.Interval, o.top)
		}
		if rep.Alarm {
			alarms++
		}
		intervals++
		return nil
	})
	return intervals, alarms, err
}

// runRelay accepts o.coll.Agents child connections on ln, merges their
// interval frames, and ships each merged interval to the parent at
// o.connect. No detection happens here and nothing is printed per
// interval — the tree's root emits the reports.
func runRelay(o *options, ln net.Listener) error {
	rel, err := anomalyx.NewRelay(o.engineConfig().Pipeline, anomalyx.RelayConfig{
		Collector: o.coll,
		AgentID:   o.agentID,
		Parent:    o.connect,
		LeafBase:  o.leafBase,
		Retry:     o.retry,
	})
	if err != nil {
		return err
	}
	defer rel.Close()
	if o.coll.MetricsAddr != "" {
		expvar.Publish("anomalyx.relay", rel.Metrics())
	}
	return rel.Serve(context.Background(), ln)
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0) // help was requested and printed — a success
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch o.mode {
	case "collector":
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		intervals, alarms, err := serveCollector(o, ln, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nmerged %d intervals from %d agents, %d alarms\n", intervals, o.coll.Agents, alarms)
	case "relay":
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		if err := runRelay(o, ln); err != nil {
			fatal(err)
		}
		fmt.Printf("\nrelayed %d children to %s\n", o.coll.Agents, o.connect)
	case "agent":
		f, err := os.Open(o.in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		intervals, err := runAgent(o, f, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nshipped %d intervals to %s\n", intervals, o.connect)
	default:
		f, err := os.Open(o.in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		intervals, alarms, err := run(o, f, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nprocessed %d intervals, %d alarms\n", intervals, alarms)
	}
}

func printReport(w io.Writer, rep *anomalyx.Report, idx, top int) {
	partial := ""
	if len(rep.Partial) > 0 {
		ids := make([]string, len(rep.Partial))
		for i, id := range rep.Partial {
			ids[i] = fmt.Sprint(id)
		}
		partial = "  PARTIAL(missing agents " + strings.Join(ids, ",") + ")"
	}
	if !rep.Alarm {
		fmt.Fprintf(w, "interval %4d: %7d flows, no alarm%s\n", idx, rep.TotalFlows, partial)
		return
	}
	fmt.Fprintf(w, "interval %4d: %7d flows  ALARM  suspicious=%d minsup=%d itemsets=%d (R=%.0f)%s\n",
		idx, rep.TotalFlows, rep.SuspiciousFlows, rep.MinSupport, len(rep.ItemSets), rep.CostReduction, partial)
	sets := rep.ItemSets
	if top < len(sets) {
		sets = mining.TopK(sets, top)
	}
	for i := range sets {
		fmt.Fprintf(w, "    %s\n", sets[i].String())
	}
}

// Exit codes: 1 for runtime errors, 2 for usage errors, and
// exitConfigMismatch when the agent/collector handshake rejects the
// session over differing detection configurations — scripts can
// distinguish "fix the flags" from "fix the network".
const exitConfigMismatch = 3

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "anomalyx:", err)
	var mismatch *anomalyx.ConfigMismatchError
	if errors.As(err, &mismatch) {
		os.Exit(exitConfigMismatch)
	}
	os.Exit(1)
}
