package engine

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/stats"
)

const intervalLen = time.Minute

func testConfig(workers int) core.Config {
	return core.Config{
		Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 3},
		Workers:  workers,
	}
}

// TestEngineConcurrentProducers submits from many goroutines at once
// (run under -race). All records carry timestamps inside one interval,
// so exactly one report must account for every submitted flow.
func TestEngineConcurrentProducers(t *testing.T) {
	eng, err := New(Config{Pipeline: testConfig(4), IntervalLen: intervalLen, Buffer: 256})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 8
	const perProducer = 5000
	base := int64(1_700_000_000_000)
	base -= base % intervalLen.Milliseconds()

	var total int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			total += rep.TotalFlows
		}
	}()

	var wg sync.WaitGroup
	wg.Add(producers)
	for i := 0; i < producers; i++ {
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRand(seed)
			// Small batches, so the producers interleave finely.
			buf := make([]flow.Record, 0, 25)
			for j := 0; j < perProducer; j++ {
				buf = append(buf, flow.Record{
					SrcAddr: uint32(r.IntN(10000)), DstPort: uint16(r.IntN(1000)),
					Protocol: 6, Packets: 1, Bytes: 100,
					Start: base + int64(j)%intervalLen.Milliseconds(),
				})
				if len(buf) == cap(buf) {
					eng.SubmitBatch(buf)
					buf = buf[:0]
				}
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	if want := producers * perProducer; total != want {
		t.Fatalf("reports account for %d flows, want %d", total, want)
	}
	if eng.Err() != nil {
		t.Fatalf("engine error: %v", eng.Err())
	}
}

// errMiner fails every Mine call, simulating a mid-stream pipeline
// failure on the first alarming interval.
type errMiner struct{}

func (errMiner) Mine([]itemset.Transaction, int) (*mining.Result, error) {
	return nil, errors.New("miner exploded")
}
func (errMiner) Name() string { return "err" }

// TestEngineErrorSurfacesOnLiveStream injects a failing miner and keeps
// submitting after the failure, as a live collector would: the Reports
// channel must close early with Err settled, SubmitBatch must never
// block on the dead pipeline, and Close must return the error.
func TestEngineErrorSurfacesOnLiveStream(t *testing.T) {
	cfg := testConfig(2)
	cfg.Miner = errMiner{}
	eng, err := New(Config{Pipeline: cfg, IntervalLen: gridtest.IntervalLen, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}

	// Consumer: when Reports closes, the cause must already be visible.
	errAtClose := make(chan error, 1)
	go func() {
		for range eng.Reports() {
		}
		errAtClose <- eng.Err()
	}()

	// A stream whose first mined interval sits two before the end: mining
	// fails when the boundary after it is crossed, records keep coming.
	for _, rec := range slices.Concat(gridtest.Trace(10, 1000, 8)...) {
		eng.SubmitBatch([]flow.Record{rec}) // must not block after the pipeline dies
	}

	if err := eng.Close(); err == nil || err.Error() == "" {
		t.Fatalf("Close error = %v, want the mining failure", err)
	}
	if err := <-errAtClose; err == nil {
		t.Fatal("Err() was nil when Reports closed")
	}
}

// TestEngineRejectsSubMillisecondInterval: flow timestamps have 1ms
// resolution; a finer interval would truncate to a zero-length grid and
// divide by zero in the processing goroutine. A negative interval is
// refused too, not read as the 15-minute default a zero one takes.
func TestEngineRejectsSubMillisecondInterval(t *testing.T) {
	for _, d := range []time.Duration{500 * time.Microsecond, -5 * time.Minute, -time.Nanosecond} {
		if _, err := New(Config{Pipeline: testConfig(1), IntervalLen: d}); err == nil {
			t.Errorf("interval %v accepted", d)
		}
	}
}

// TestEngineCloseIdempotent double-closes and checks the empty-stream
// behavior (one empty report, like the CLI's EOF flush).
func TestEngineCloseIdempotent(t *testing.T) {
	eng, err := New(Config{Pipeline: testConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range eng.Reports() {
			n++
		}
	}()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if n != 1 {
		t.Fatalf("empty stream emitted %d reports, want 1", n)
	}
}

// TestSubmitBatchCallerMayReuseSlice pins the copy semantics: mutating
// the submitted slice after SubmitBatch returns must not corrupt the
// stream (run under -race to catch aliasing).
func TestSubmitBatchCallerMayReuseSlice(t *testing.T) {
	eng, err := New(Config{Pipeline: testConfig(1), IntervalLen: intervalLen})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			total += rep.TotalFlows
		}
	}()
	base := int64(1_700_000_000_000)
	buf := make([]flow.Record, 100)
	for round := 0; round < 50; round++ {
		for i := range buf {
			buf[i] = flow.Record{SrcAddr: uint32(round), DstPort: uint16(i), Start: base}
		}
		if _, err := eng.SubmitBatch(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if want := 50 * len(buf); total != want {
		t.Fatalf("reports account for %d flows, want %d", total, want)
	}
}

// TestSubmitBatchConcurrentProducers hammers SubmitBatch from many
// goroutines at once (run under -race). Cuts are counted by exactly the
// producer that enqueued them, so the per-producer closed counts plus
// the Close flush must account for every emitted report, and the
// reports for every submitted flow.
func TestSubmitBatchConcurrentProducers(t *testing.T) {
	eng, err := New(Config{Pipeline: testConfig(4), IntervalLen: intervalLen, Buffer: 256})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 8
	const batches = 40
	const perBatch = 250
	base := int64(1_700_000_000_000)
	base -= base % intervalLen.Milliseconds()

	var reports, total int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			reports++
			total += rep.TotalFlows
		}
	}()

	var closed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(producers)
	for i := 0; i < producers; i++ {
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRand(seed)
			buf := make([]flow.Record, perBatch)
			for j := 0; j < batches; j++ {
				for k := range buf {
					buf[k] = flow.Record{
						SrcAddr: uint32(r.IntN(10000)), DstPort: uint16(r.IntN(1000)),
						Protocol: 6, Packets: 1, Bytes: 100,
						// Timestamps wander forward over ~3 intervals.
						Start: base + int64(j)*intervalLen.Milliseconds()/16 + int64(r.IntN(1000)),
					}
				}
				n, err := eng.SubmitBatch(buf)
				if err != nil {
					t.Error(err)
					return
				}
				closed.Add(int64(n))
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	if want := producers * batches * perBatch; total != want {
		t.Fatalf("reports account for %d flows, want %d", total, want)
	}
	if want := int(closed.Load()) + 1; reports != want {
		t.Fatalf("engine emitted %d reports, want %d (sum of closed counts + final flush)", reports, want)
	}
}

// TestChunkRecyclingKeepsReports drives the column-chunk free list
// hard (run under -race: a chunk passes from a submitter to the
// processing goroutine and back by design). One producer refills a
// single slice for every 97-record batch at Buffer 2, so most batches
// straddle a boundary and travel as several segments of one chunk, and
// the reports must equal gridtest.Reference's: a chunk recycled before
// its last segment was observed would be overwritten by the next batch.
// Four producers then submit at once, and the reports must account for
// every flow. Both engines must end with chunks on their free lists.
func TestChunkRecyclingKeepsReports(t *testing.T) {
	trace := gridtest.Trace(10, 1500, 8)
	stream := slices.Concat(trace...)
	eng, err := New(Config{Pipeline: gridtest.Config(), IntervalLen: gridtest.IntervalLen, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	var reports []*core.Report
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			reports = append(reports, rep)
		}
	}()
	batch := make([]flow.Record, 97)
	for lo := 0; lo < len(stream); lo += len(batch) {
		n := copy(batch, stream[lo:])
		if _, err := eng.SubmitBatch(batch[:n]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	gridtest.Equal(t, reports, gridtest.Reference(t, gridtest.Config(), trace), 1)
	if len(eng.free) == 0 {
		t.Fatal("no column chunk came back to the free list")
	}

	eng, err = New(Config{Pipeline: testConfig(2), IntervalLen: intervalLen, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	done = make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			total += rep.TotalFlows
		}
	}()
	base := int64(1_700_000_000_000)
	base -= base % intervalLen.Milliseconds()
	const producers, batches, perBatch = 4, 30, 97
	var wg sync.WaitGroup
	wg.Add(producers)
	for i := 0; i < producers; i++ {
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRand(seed)
			buf := make([]flow.Record, perBatch)
			for j := 0; j < batches; j++ {
				for k := range buf {
					// Each batch spans about half an interval.
					buf[k] = flow.Record{
						SrcAddr: uint32(r.IntN(5000)), DstPort: uint16(r.IntN(500)), Packets: 1,
						Start: base + int64(j*perBatch+k)*intervalLen.Milliseconds()/(2*perBatch),
					}
				}
				if _, err := eng.SubmitBatch(buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if want := producers * batches * perBatch; total != want {
		t.Fatalf("reports account for %d flows, want %d", total, want)
	}
	if len(eng.free) == 0 {
		t.Fatal("no column chunk came back to the free list")
	}
}

// TestSubmitBatchSteadyStateAllocs pins the engine's ingest at zero
// allocations: once one interval has warmed the column chunks, the
// partition buffer and the value tables, a depth-1 one-partition
// engine's SubmitBatch of 512 rows, plus that batch's processing,
// allocates nothing. Each try waits until the processing goroutine has
// handed the batch's chunk back, so the processing falls inside it. The
// count is the least over several tries at GOMAXPROCS 1, of every malloc
// in the test binary.
func TestSubmitBatchSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng, err := New(Config{Pipeline: core.Config{Workers: 1}, IntervalLen: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range eng.Reports() {
		}
	}()
	defer eng.Close()
	const batch, batches = 512, 16
	recs := gridtest.Trace(1, 2*batch*batches, -1)[0]
	if len(recs) < batch*batches {
		t.Fatalf("trace interval holds %d records, want %d", len(recs), batch*batches)
	}
	submit := func(interval, i int) {
		b := recs[i*batch : (i+1)*batch]
		for j := range b {
			b[j].Start = int64(interval)*1000 + int64(j)
		}
		if _, err := eng.SubmitBatch(b); err != nil {
			t.Fatal(err)
		}
		// The engine runs on one chunk: it is back once processed.
		for len(eng.free) == 0 {
			runtime.Gosched()
		}
	}
	for i := range batches { // the warm interval
		submit(1, i)
	}
	submit(2, 0) // crosses the boundary; the close allocates its report
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 1; i < batches; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		submit(2, i)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.Mallocs-before)
	}
	if least != 0 {
		t.Fatalf("a warmed engine's SubmitBatch of %d rows and its processing allocated %d times, want 0", batch, least)
	}
}

// benchStream is a single-interval stream for the submit-path benches.
func benchStream(n int) []flow.Record {
	r := stats.NewRand(9)
	base := int64(1_700_000_000_000)
	base -= base % intervalLen.Milliseconds()
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr: uint32(r.IntN(50000)), DstPort: uint16(r.IntN(1500)),
			Protocol: 6, Packets: 1, Bytes: 100,
			Start: base + int64(i)%intervalLen.Milliseconds(),
		}
	}
	return recs
}

// BenchmarkEngineSubmitBatch measures the submit path in 512-record
// batches (one transpose into a recycled column chunk and one channel
// message per batch). Every iteration submits one 20 000-record interval
// and closes the previous one, so the open interval, and the memory the
// run holds, stays one iteration's size.
func BenchmarkEngineSubmitBatch(b *testing.B) {
	recs := benchStream(20000)
	eng, err := New(Config{Pipeline: testConfig(1), IntervalLen: intervalLen})
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for range eng.Reports() {
		}
	}()
	b.SetBytes(int64(len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			for j := range recs {
				recs[j].Start += intervalLen.Milliseconds()
			}
		}
		for j := 0; j < len(recs); j += 512 {
			end := min(j+512, len(recs))
			if _, err := eng.SubmitBatch(recs[j:end]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestEngineClockJump pins the corrupt-timestamp guard: a record with a
// far-future Start must not make the engine close millions of empty
// intervals — the gap collapses into one cut and the boundary grid
// re-seeds from the new timestamp.
func TestEngineClockJump(t *testing.T) {
	eng, err := New(Config{Pipeline: testConfig(1), IntervalLen: intervalLen})
	if err != nil {
		t.Fatal(err)
	}
	reports := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range eng.Reports() {
			reports++
		}
	}()
	base := int64(1_700_000_000_000)
	if _, err := eng.SubmitBatch([]flow.Record{{DstPort: 1, Start: base}}); err != nil {
		t.Fatal(err)
	}
	// ~136 years ahead — far beyond maxGapIntervals at any sane length.
	jump := base + int64(4_300_000_000)*1000
	n, err := eng.SubmitBatch([]flow.Record{{DstPort: 2, Start: jump}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("clock jump closed %d intervals, want 1", n)
	}
	// A record just after the jump lands on the re-seeded grid without
	// further cuts.
	if n, _ := eng.SubmitBatch([]flow.Record{{DstPort: 3, Start: jump + 1}}); n != 0 {
		t.Fatalf("record on re-seeded grid closed %d intervals, want 0", n)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if reports != 2 {
		t.Fatalf("engine emitted %d reports, want 2 (jump cut + final flush)", reports)
	}
}

// shipRecorder is a recording ship function: the boundaries it is
// handed are the engine's contract with distributed agents (the wire
// package ships snapshots keyed by them).
type shipRecorder struct {
	mu         sync.Mutex
	boundaries []int64
	flows      int
}

func (r *shipRecorder) ship(boundary int64, oi core.OpenInterval) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.boundaries = append(r.boundaries, boundary)
	r.flows += oi.Buffer.Len()
	return nil
}

// runShipping streams batches through a shipping engine over a fresh
// one-partition pipeline and returns the local stub reports and the
// recorder; each batch's closed count is checked against wantClosed
// when it is non-nil.
func runShipping(t *testing.T, cfg Config, batches [][]flow.Record, wantClosed []int) ([]*core.Report, *shipRecorder) {
	t.Helper()
	p, err := core.New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := &shipRecorder{}
	eng, err := NewShipping(cfg, p, rec.ship)
	if err != nil {
		t.Fatal(err)
	}
	var stubs []*core.Report
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			stubs = append(stubs, rep)
		}
	}()
	for i, b := range batches {
		n, err := eng.SubmitBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if wantClosed != nil && n != wantClosed[i] {
			t.Fatalf("batch %d closed %d intervals, want %d", i, n, wantClosed[i])
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	return stubs, rec
}

// checkStubs asserts the local stub reports of a shipping engine: one
// per close, numbered 0..n-1, each carrying its drained flow count.
func checkStubs(t *testing.T, stubs []*core.Report, flows []int) {
	t.Helper()
	if len(stubs) != len(flows) {
		t.Fatalf("%d stub reports, want %d", len(stubs), len(flows))
	}
	for i, rep := range stubs {
		if want := (core.Report{Interval: i, TotalFlows: flows[i]}); !reflect.DeepEqual(*rep, want) {
			t.Fatalf("stub %d = %+v, want %+v", i, *rep, want)
		}
	}
}

// TestNewWithSinkBoundaries: a shipping engine ships the absolute grid
// end of every closed interval — for plain cuts, for counted
// multi-interval gaps, and for the final flush at Close.
func TestNewWithSinkBoundaries(t *testing.T) {
	step := intervalLen.Milliseconds()
	base := int64(1_700_000_000_000)
	base -= base % step
	// Interval 0: two records; then a gap straight to interval 3 (the
	// cut message carries 3 counted cuts); then Close flushes interval 3.
	stubs, rec := runShipping(t, Config{IntervalLen: intervalLen}, [][]flow.Record{
		{{DstPort: 1, Start: base + 10}},
		{{DstPort: 2, Start: base + 20}},
		{{DstPort: 3, Start: base + 3*step + 5}},
	}, []int{0, 0, 3})
	want := []int64{base + step, base + 2*step, base + 3*step, base + 4*step}
	if !reflect.DeepEqual(rec.boundaries, want) {
		t.Fatalf("shipped boundaries %v, want %v", rec.boundaries, want)
	}
	if rec.flows != 3 {
		t.Fatalf("shipped %d flows, want 3", rec.flows)
	}
	checkStubs(t, stubs, []int{2, 0, 0, 1})
}

// TestNewWithSinkEmptyStream: with no records at all the grid is never
// seeded, so the final flush ships nothing — there is no grid slot for
// it — but still emits its one stub.
func TestNewWithSinkEmptyStream(t *testing.T) {
	stubs, rec := runShipping(t, Config{IntervalLen: intervalLen}, nil, nil)
	if len(rec.boundaries) != 0 {
		t.Fatalf("empty stream shipped boundaries %v", rec.boundaries)
	}
	checkStubs(t, stubs, []int{0})
}

// TestNewWithSinkRejectsNil: a nil pipeline or ship function is a
// construction error.
func TestNewWithSinkRejectsNil(t *testing.T) {
	p, err := core.New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := NewShipping(Config{}, nil, (&shipRecorder{}).ship); err == nil {
		t.Fatal("nil pipeline accepted")
	}
	if _, err := NewShipping(Config{}, p, nil); err == nil {
		t.Fatal("nil ship function accepted")
	}
}

// TestNewShippingRejectsPipelineDepth: a shipping close is a drain plus a
// ship on the processing goroutine, with nothing to defer, so a depth
// above 1 is refused rather than silently run at depth 1.
func TestNewShippingRejectsPipelineDepth(t *testing.T) {
	p, err := core.New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rec := &shipRecorder{}
	for _, depth := range []int{2, 4} {
		if _, err := NewShipping(Config{PipelineDepth: depth}, p, rec.ship); err == nil {
			t.Fatalf("PipelineDepth %d accepted", depth)
		}
	}
	for _, depth := range []int{0, 1} {
		eng, err := NewShipping(Config{PipelineDepth: depth}, p, rec.ship)
		if err != nil {
			t.Fatalf("PipelineDepth %d rejected: %v", depth, err)
		}
		go func() {
			for range eng.Reports() {
			}
		}()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBoundaryAfter pins the boundary grid on both sides of the epoch.
// This is the failing-first regression for the truncating-modulo bug:
// Go's `%` follows the dividend's sign, so the old `ms - ms%step + step`
// rounded pre-epoch timestamps toward zero — BoundaryAfter(-500)
// returned 1000 instead of 0, shifting the whole pre-epoch grid one
// interval late.
func TestBoundaryAfter(t *testing.T) {
	eng, err := New(Config{Pipeline: testConfig(1), IntervalLen: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Reports() {
		}
	}()
	cases := []struct{ ms, want int64 }{
		{-1500, -1000}, // pre-epoch interior
		{-1000, 0},     // exact pre-epoch multiple belongs to the next interval
		{-500, 0},      // the bug's probe: was 1000
		{-1, 0},
		{0, 1000}, // exact multiple at the epoch
		{1, 1000},
		{999, 1000},
		{1000, 2000}, // exact post-epoch multiple
		{1500, 2000},
	}
	for _, tc := range cases {
		if got := eng.BoundaryAfter(tc.ms); got != tc.want {
			t.Errorf("BoundaryAfter(%d) = %d, want %d", tc.ms, got, tc.want)
		}
	}
}

// TestEnginePreEpochStream runs the bug end to end: a stream starting
// before the epoch must close intervals on the aligned grid. With the
// truncating modulo the first record at -500 ms seeded the boundary at
// 1000 instead of 0, so the stream below closed one interval instead of
// two — and the misalignment doubled as a boundary==0 sentinel
// collision, since the correct first boundary here *is* 0.
//
// The seeded boundary 0 is shipped like any other: the engine keeps the
// seeded flag, so no boundary value doubles as "no records".
func TestEnginePreEpochStream(t *testing.T) {
	stubs, rec := runShipping(t, Config{IntervalLen: time.Second}, [][]flow.Record{{
		{DstPort: 1, Start: -500}, // seeds the grid: first boundary 0
		{DstPort: 2, Start: 600},  // crosses 0, lands in (0, 1000]
		{DstPort: 3, Start: 1200}, // crosses 1000
	}}, []int{2})
	want := []int64{0, 1000, 2000}
	if !reflect.DeepEqual(rec.boundaries, want) {
		t.Fatalf("shipped boundaries %v, want %v", rec.boundaries, want)
	}
	checkStubs(t, stubs, []int{1, 1, 1})
}

// TestNewWithSinkClockJump: past the maxGapIntervals bound the engine
// re-seeds the grid, and the ship function sees the pre-jump boundary
// once, then boundaries on the new grid.
func TestNewWithSinkClockJump(t *testing.T) {
	step := intervalLen.Milliseconds()
	base := int64(1_700_000_000_000)
	base -= base % step
	jump := base + (maxGapIntervals+10)*step
	stubs, rec := runShipping(t, Config{IntervalLen: intervalLen}, [][]flow.Record{
		{{DstPort: 1, Start: base}},
		{{DstPort: 2, Start: jump + 5}},
	}, []int{0, 1})
	want := []int64{base + step, jump + step}
	if !reflect.DeepEqual(rec.boundaries, want) {
		t.Fatalf("shipped boundaries %v, want %v", rec.boundaries, want)
	}
	checkStubs(t, stubs, []int{1, 1})
}
