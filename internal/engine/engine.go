// Package engine provides a channel-based streaming front end for the
// anomaly-extraction pipeline: callers submit flow records as they
// arrive (from a collector socket, a trace file, a message queue) and
// receive one Report per measurement interval on a channel.
//
// The engine shards the incoming stream into measurement intervals by
// flow start time — the boundary grid is aligned to IntervalLen, like a
// router's export clock. Boundary crossings are detected on the submit
// side, so SubmitBatch can synchronously return how many intervals a
// batch closed (lockstep consumers need no boundary arithmetic of their
// own), while the processing goroutine just executes the resulting
// batch/cut stream: each batch goes to the pipeline's ObserveBatch, and
// each cut closes an interval (detection + extraction). Both channels
// are bounded, so a slow consumer exerts backpressure all the way back
// to SubmitBatch instead of growing an unbounded queue. With
// Config.Shards > 1 the engine's pipeline is hash-partitioned (built by
// shard.New), parallelizing ingestion across partitions with a
// deterministic cross-partition merge at each interval close.
//
// The engine drives exactly one core.Pipeline. A shipping engine
// (NewShipping, the distributed agent) differs only in where a closed
// interval goes: the cut drains the open interval and hands it to a
// ship function instead of running detection locally.
//
//	eng, _ := engine.New(engine.Config{IntervalLen: 15 * time.Minute})
//	go func() {
//		for rep := range eng.Reports() {
//			handle(rep)
//		}
//	}()
//	for recs := range source {
//		eng.SubmitBatch(recs)
//	}
//	if err := eng.Close(); err != nil {
//		log.Fatal(err)
//	}
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/shard"
)

// Config parameterizes a streaming engine.
type Config struct {
	// Pipeline configures the underlying extraction pipeline; zero-value
	// fields take the paper's defaults (see core.Config).
	Pipeline core.Config
	// Shards selects hash partitioning: when > 1 the engine's pipeline
	// splits every interval across that many partitions (shard.New:
	// flows partitioned by the stable hash of the flow key, merged
	// deterministically at each interval close). 0 or 1 runs one
	// partition.
	Shards int
	// IntervalLen is the measurement-interval length Delta (default the
	// paper's 15 minutes). Interval boundaries are aligned to multiples
	// of IntervalLen from the epoch, seeded by the first record.
	IntervalLen time.Duration
	// Buffer is the input-channel capacity — the backpressure bound.
	// SubmitBatch blocks once Buffer messages are queued (default 8192).
	Buffer int
	// PipelineDepth is the maximum number of measurement intervals the
	// engine may have open at once: the interval accumulating records,
	// plus up to PipelineDepth-1 drained closes finishing (detection +
	// extraction) on an asynchronous close worker. 1 (the default) runs
	// every close inline on the processing goroutine — today's fully
	// synchronous behavior. Depths > 1 overlap the expensive close with
	// the next interval's ingestion: each cut swaps the closed interval's
	// state out of the hot path in O(1) and hands it to the worker, which
	// finishes closes strictly in boundary order, so reports are
	// byte-identical to the synchronous path (see core.PendingClose). Once
	// PipelineDepth-1 closes are in flight, the next cut blocks — close
	// backpressure propagates to SubmitBatch exactly like full input
	// buffers. A shipping engine (NewShipping) has no detection to defer:
	// it runs depth 1 and rejects more.
	PipelineDepth int
}

func (c Config) withDefaults() Config {
	if c.IntervalLen <= 0 {
		c.IntervalLen = 15 * time.Minute
	}
	if c.Buffer <= 0 {
		c.Buffer = 8192
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 1
	}
	return c
}

// msg is one unit of the submit→process stream: a batch of records or
// an interval-cut marker. Cuts are generated on the submit side, so
// their position in the channel order is authoritative — the processor
// closes intervals exactly where the submitters crossed the boundary
// grid. Consecutive cuts collapse into one counted message:
// a quiet gap spanning thousands of empty intervals costs one channel
// slot, so a lockstep consumer (submit, then read the returned number of
// reports) cannot wedge the input buffer no matter how long the gap.
type msg struct {
	recs     []flow.Record // batch; nil for cut messages
	cuts     int           // close this many intervals; no payload
	boundary int64         // grid end of the first closed interval (cut messages only)
}

// Engine is the streaming front end. SubmitBatch may be called from
// multiple goroutines; Reports delivers interval reports in interval
// order.
//
// On a pipeline error the engine settles Err, closes Reports
// immediately — even while producers are still submitting — and
// silently discards further input until Close, so a consumer on a live
// stream learns about the failure right away.
type Engine struct {
	cfg Config
	p   *core.Pipeline
	// ship, when set, makes this a shipping engine: every cut drains the
	// open interval and hands it to ship instead of closing it locally.
	ship func(boundary int64, oi core.OpenInterval) error

	// submitMu guards the boundary grid and orders messages from
	// concurrent producers into the input channel.
	submitMu sync.Mutex
	boundary int64 // end of the current interval; meaningless until seeded
	// seeded records whether the first record has seeded the boundary
	// grid. It is an explicit flag rather than a boundary==0 sentinel
	// because 0 is a legitimate grid boundary: a pre-epoch stream (e.g.
	// starting at -500 ms) has its first interval end exactly at 0. It is
	// written once, before the first message is enqueued, so the
	// processing goroutine may read it after any receive (or, at the
	// final flush, after taking submitMu).
	seeded bool

	in   chan msg
	out  chan *core.Report
	fin  chan struct{} // closed once err is settled, before out closes
	done chan struct{} // closed when the processing goroutine exits

	closeOnce sync.Once
	err       error // settled before fin closes
}

// New builds an engine around a pipeline of cfg.Shards partitions and
// starts its processing goroutine.
func New(cfg Config) (*Engine, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg = e.cfg; cfg.Shards > 1 {
		e.p, err = shard.New(shard.Config{Shards: cfg.Shards, Pipeline: cfg.Pipeline})
	} else {
		e.p, err = core.New(cfg.Pipeline)
	}
	if err != nil {
		return nil, err
	}
	go e.run()
	return e, nil
}

// NewShipping builds a shipping engine over p and starts its processing
// goroutine. The engine owns the stream mechanics — interval sharding by
// flow start time, backpressure — and accumulates records into p; each
// interval close drains p's open interval (DrainOpenInterval, its
// partitions folded into one) and calls ship with the interval's grid
// end instead of running detection, which happens wherever ship sends
// it (wire.Agent.ShipOpenInterval: a remote collector). Reports carries
// one local stub per close: the close ordinal and the drained flow
// count. An empty stream ships nothing — it has no grid slot — but
// still emits its stub.
//
// ship borrows oi for the duration of the call: when it returns, the
// engine gives oi back to p (RecycleOpenInterval) and the next close
// drains into the same memory. A hook that needs the interval later —
// queued, compared, sent from another goroutine — must copy it, or
// encode it before returning as wire.Agent.ShipOpenInterval does.
//
// cfg.Pipeline and cfg.Shards are ignored (p already embodies them), and
// a shipping close cannot be deferred, so PipelineDepth > 1 is an error.
// On success the engine owns p and Closes it when it is Closed; on error
// p is left to the caller.
func NewShipping(cfg Config, p *core.Pipeline, ship func(boundary int64, oi core.OpenInterval) error) (*Engine, error) {
	switch {
	case p == nil:
		return nil, fmt.Errorf("engine: nil pipeline")
	case ship == nil:
		return nil, fmt.Errorf("engine: nil ship function")
	case cfg.PipelineDepth > 1:
		return nil, fmt.Errorf("engine: a shipping engine closes intervals inline; PipelineDepth %d > 1", cfg.PipelineDepth)
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.p, e.ship = p, ship
	go e.run()
	return e, nil
}

// newEngine validates cfg and builds the channel plumbing; the caller
// sets the pipeline and starts run.
func newEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.IntervalLen < time.Millisecond {
		// Flow timestamps are in milliseconds; anything finer truncates
		// to a zero-length boundary grid.
		return nil, fmt.Errorf("engine: interval length %v below 1ms resolution", cfg.IntervalLen)
	}
	if cfg.Shards < 0 {
		// Reject rather than silently running unsharded: shard.New
		// errors on the same input, and the two entry points should
		// agree.
		return nil, fmt.Errorf("engine: negative shard count %d", cfg.Shards)
	}
	return &Engine{
		cfg:  cfg,
		in:   make(chan msg, cfg.Buffer),
		out:  make(chan *core.Report, 16),
		fin:  make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// BoundaryAfter returns the end of the measurement interval containing
// timestamp ms (Unix milliseconds) on the engine's boundary grid —
// intervals are aligned to multiples of IntervalLen from the epoch, on
// both sides of it. The modulo is floored, not truncated: Go's `%`
// follows the dividend's sign, so `ms - ms%step + step` would round
// pre-epoch timestamps toward zero and misalign their grid (with a 1 s
// interval, BoundaryAfter(-500) must be 0, not 1000).
func (e *Engine) BoundaryAfter(ms int64) int64 {
	step := e.cfg.IntervalLen.Milliseconds()
	rem := ms % step
	if rem < 0 {
		rem += step
	}
	return ms - rem + step
}

// maxGapIntervals bounds how many empty intervals one timestamp gap may
// close. A single corrupt or far-future flow timestamp would otherwise
// make the processor grind through millions of empty detection rounds
// and flood Reports; past the bound the engine treats the gap as a
// clock jump instead — close the current interval once and re-seed the
// boundary grid from the new timestamp, exactly as it was seeded by the
// first record.
const maxGapIntervals = 4096

// advanceLocked seeds or advances the boundary grid past timestamp ts,
// enqueueing one counted cut marker covering every crossed boundary; it
// returns the number of cuts. submitMu must be held.
func (e *Engine) advanceLocked(ts int64) int {
	if !e.seeded {
		e.seeded = true
		e.boundary = e.BoundaryAfter(ts)
		return 0
	}
	if ts < e.boundary {
		return 0
	}
	step := e.cfg.IntervalLen.Milliseconds()
	first := e.boundary // grid end of the first interval this run closes
	n := (ts-e.boundary)/step + 1
	if n > maxGapIntervals {
		// Clock jump: one cut for the interval in progress, fresh grid.
		e.boundary = e.BoundaryAfter(ts)
		n = 1
	} else {
		e.boundary += n * step
	}
	e.in <- msg{cuts: int(n), boundary: first}
	return int(n)
}

// SubmitBatch queues a batch of flow records — the engine's one ingest
// call; a caller with single records submits batches of one — and
// returns the number of measurement intervals the batch closed: boundary
// crossings are detected here, on the submit side, so lockstep consumers
// can read exactly that many reports without mirroring the engine's
// boundary arithmetic. The records are copied; the caller may reuse
// recs. It blocks for backpressure and must not be called after Close.
// The returned error is the pipeline error that has terminated the
// engine, if any (further input is discarded once it is set); the cut
// count is still returned for bookkeeping.
//
// A lockstep consumer may read exactly intervalsClosed reports after
// each call from the same goroutine: SubmitBatch enqueues at most two
// messages per record that crosses an interval boundary (gaps of any
// length collapse into one counted cut), so with the default Buffer a
// single batch would need thousands of boundary-crossing records to
// fill the input channel before returning. Split such batches — or
// consume reports concurrently — if records are that sparse.
func (e *Engine) SubmitBatch(recs []flow.Record) (intervalsClosed int, err error) {
	if len(recs) == 0 {
		return 0, e.Err()
	}
	buf := make([]flow.Record, len(recs))
	copy(buf, recs)
	e.submitMu.Lock()
	defer e.submitMu.Unlock()
	closed := 0
	start := 0
	for i := range buf {
		if !e.seeded || buf[i].Start >= e.boundary {
			// Flush the records before the crossing, then cut.
			if i > start {
				e.in <- msg{recs: buf[start:i]}
				start = i
			}
			closed += e.advanceLocked(buf[i].Start)
		}
	}
	if start < len(buf) {
		e.in <- msg{recs: buf[start:]}
	}
	return closed, e.Err()
}

// Reports returns the channel of per-interval reports. It is closed
// after the final interval has been emitted (following Close) or after
// a pipeline error; Err reports the cause in the latter case.
func (e *Engine) Reports() <-chan *core.Report { return e.out }

// Close ends the stream: the current partial interval is flushed, its
// report emitted, and the Reports channel closed. Close blocks until the
// processing goroutine has drained, releases the pipeline's worker
// pools, and returns the first pipeline error, if any. It is idempotent.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() { close(e.in) })
	<-e.done
	e.p.Close()
	return e.err
}

// Err returns the pipeline error that terminated the engine, if any.
// It is meaningful once the Reports channel has closed: the error is
// settled before Reports closes, so a consumer that observed the close
// always sees the cause.
func (e *Engine) Err() error {
	select {
	case <-e.fin:
		return e.err
	default:
		return nil
	}
}

// run is the processing goroutine: process the stream, settle the
// error, close Reports, and keep draining input until the producers
// Close so a failed pipeline never blocks a live stream.
func (e *Engine) run() {
	defer close(e.done)
	e.err = e.process()
	close(e.fin)
	close(e.out)
	if e.err != nil {
		// Discard further input until Close; the error is surfaced
		// through Err (Reports just closed) and Close.
		for range e.in {
		}
	}
}

// process executes the batch/cut stream: it observes every batch and
// closes an interval at every cut marker; it returns the first pipeline
// error. Cut messages carry the grid end of the first interval they
// close, so every close is attributed to — and a shipping engine ships
// — its absolute boundary.
//
// There is one loop; PipelineDepth and ship choose only how a cut
// closes (see closer). Whatever the loop returns, join runs exactly
// once after it, so the reports of completed closes are always emitted
// before Reports closes, and a close error takes precedence over the
// drain error that followed it.
func (e *Engine) process() error {
	cut, failed, join := e.closer()
	err := e.consume(cut, failed)
	if jerr := join(); jerr != nil {
		return jerr
	}
	return err
}

// consume is the message loop. It returns early on the first cut error,
// or with nil once failed is closed — also watched while idle, so the
// engine settles Err and closes Reports promptly even if producers go
// quiet.
func (e *Engine) consume(cut func(boundary int64) error, failed <-chan struct{}) error {
	step := e.cfg.IntervalLen.Milliseconds()
	for {
		var m msg
		var ok bool
		select {
		case m, ok = <-e.in:
		case <-failed:
			return nil
		}
		if !ok {
			break
		}
		if m.cuts == 0 {
			e.p.ObserveBatch(m.recs)
			continue
		}
		for i := 0; i < m.cuts; i++ {
			if err := cut(m.boundary + int64(i)*step); err != nil {
				return err
			}
		}
	}
	// Final flush: close the in-progress interval. Its boundary is the
	// submit side's current grid end — settled, since Close forbids
	// further submits before closing the input channel (taking submitMu
	// also orders this read after any straggling SubmitBatch returned).
	e.submitMu.Lock()
	final := e.boundary
	e.submitMu.Unlock()
	return cut(final)
}

// emit delivers one finished close: the report goes to Reports; an error
// comes back attributed to its grid boundary — a ship error
// ("collector unreachable") is actionable only with the interval it lost.
func (e *Engine) emit(rep *core.Report, err error, boundary int64) error {
	if err != nil {
		return fmt.Errorf("engine: closing interval at boundary %d: %w", boundary, err)
	}
	e.out <- rep
	return nil
}

// pendingClose pairs a drained interval close with the grid boundary it
// covers, for error attribution on the close worker.
type pendingClose struct {
	pc       *core.PendingClose
	boundary int64
}

// closer picks how a cut closes an interval, from the engine's own
// fields. A shipping engine drains the open interval inline and ships
// it; at PipelineDepth 1 the pipeline closes it inline with EndInterval.
// Both run on the processing goroutine: failed is nil (never ready) and
// join has nothing to wait for. At depths > 1 a cut drains the closing
// interval in O(1) via BeginClose and hands it to a single close-worker
// goroutine, which finishes closes strictly in drain order and emits
// their reports — the ordered completion queue. Ingestion continues
// while up to PipelineDepth-1 finishes are in flight; a full close queue
// blocks the next cut, propagating backpressure to SubmitBatch. The
// worker closes failed on its first error; join stops it, waits for
// in-flight finishes, and returns that error.
func (e *Engine) closer() (cut func(boundary int64) error, failed <-chan struct{}, join func() error) {
	inline := func() error { return nil }
	if e.ship != nil {
		closes := 0
		return func(boundary int64) error {
			oi := e.p.DrainOpenInterval()
			rep := &core.Report{Interval: closes, TotalFlows: oi.Buffer.Len()}
			closes++
			var err error
			if e.seeded {
				err = e.ship(boundary, oi)
			}
			// The hook only borrowed oi: hand its memory back so the next
			// drain reuses it.
			e.p.RecycleOpenInterval(oi)
			return e.emit(rep, err, boundary)
		}, nil, inline
	}
	if e.cfg.PipelineDepth <= 1 {
		return func(boundary int64) error {
			rep, err := e.p.EndInterval()
			return e.emit(rep, err, boundary)
		}, nil, inline
	}

	closeCh := make(chan pendingClose, e.cfg.PipelineDepth-1)
	failedCh := make(chan struct{})
	workerDone := make(chan struct{})
	var workerErr error // written before failedCh closes, read after workerDone
	go func() {
		defer close(workerDone)
		for pc := range closeCh {
			if workerErr != nil {
				continue // drop: the engine is terminating
			}
			// The channel send that delivered pc promoted this goroutine to
			// the scheduler's next slot, ahead of the producer the cut just
			// unblocked. Yield before the long finish so that on saturated
			// GOMAXPROCS the ingest path resumes first — deferred work must
			// never cut the submit-latency line it exists to shorten.
			runtime.Gosched()
			rep, err := pc.pc.Finish()
			if workerErr = e.emit(rep, err, pc.boundary); workerErr != nil {
				close(failedCh)
			}
		}
	}()
	cut = func(boundary int64) error {
		select {
		case <-failedCh:
			return nil // consume observes failed on its next receive
		default:
		}
		pc, _ := e.p.BeginClose() // cannot fail; see core.Pipeline.BeginClose
		select {
		case closeCh <- pendingClose{pc, boundary}:
		case <-failedCh:
			// The worker has failed; drop this drain.
		}
		return nil
	}
	join = func() error {
		close(closeCh)
		<-workerDone
		return workerErr
	}
	return cut, failedCh, join
}
