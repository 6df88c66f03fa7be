package wire

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
)

// The session simulator: both cores of the protocol, the collector
// session (session.go) and the agent stream (stream.go), driven by
// seeded schedules on a virtual clock, in one goroutine. A schedule draws
// a topology (flat {1}, {2}, {3} or the {2, 2} relay tree), a hold (none,
// or shorter or longer than the gap between a leaf's ships: a
// deployment's hold is shorter than its interval), the leaves' replay
// buffer (1, as agents_loopback runs, or the default 64), which nodes
// write checkpoints (the root, and in the tree each relay), in a flat
// topology maybe a leaf that ends its stream early, and up to three
// faults: a connection cut, a cut between a Bye its parent read and the
// ByeOK, a silence (finite, or, with a hold, forever), the death for
// good of a leaf or a relay before or after its first frame (with a
// hold), and a crash of a checkpointed root or relay, between two events
// or inside an emit, ship or checkpoint write, that resumes from the
// last checkpoint bytes it wrote (a relay's held frames back in its
// face's core). The simulator drives every agent's core as Agent does
// and adds only timing and faults; links keep each connection's frames
// in order, and the parent reads a frame only while the connection holds
// an ingest credit, as handleConn does. Every frame either way goes
// through the real codecs.
//
// Every schedule is held to the failure model (docs/ARCHITECTURE.md):
//   - the root's reports equal gridtest.Oracle's over exactly the
//     records it absorbed, and Partial names exactly the global leaves
//     whose frame for that boundary was not absorbed and whose stream
//     had not ended (a relay's missing list likewise names its own);
//   - a close leaves an agent out only after a hold ran out since the
//     agent's last frame or hello: the one hold rule;
//   - no agent is acked past its commit point: the last written
//     checkpoint at a checkpointed root, the parent's ack at a relay (or
//     its last written checkpoint), the frames it queued at a root
//     without a checkpoint;
//   - a leaf whose path to the root has no lasting fault has every frame
//     absorbed there, up to the end of its stream (see fault);
//   - the session ends by a virtual-time bound stated from the schedule,
//     unless it waits, by the rule, for a child that is gone without a
//     Bye and with nothing queued (see waitsForGone).
//
// A schedule keeps one leaf whose path to the root has no lasting fault
// (with a hold it is never silenced): a session that no frame ever
// reaches has nothing to close and nothing to hold, and waits for its
// fleet forever by design.
//
// A failing schedule prints its seed; -sim.seed replays it and logs its
// effect trace. The fuzz-smoke job sweeps seeds through
// FuzzSessionSchedule.

var (
	simSchedules = flag.Int("sim.schedules", 2000, "schedules TestSimulatedSessionGrid runs")
	simSeed      = flag.Int64("sim.seed", -1, "run only this simulator schedule and log its effect trace")
)

const (
	simIntervals = 5
	simStep      = 150 // virtual ms between a leaf's ships
	// The finite holds: shorter than simStep, yet longer than the skew
	// between leaves' ships of one interval (under 30 ms) plus a redial;
	// and longer than simStep.
	simShortHold = 100
	simLongHold  = 400
	simGiveUp    = 40 // failed dials before an agent gives up
)

func simBoundary(i int) int64 { return int64(i+1) * 900_000 }
func simInterval(b int64) int { return int(b/900_000) - 1 }

var errSimCrash = errors.New("simulated crash")

// TestSimulatedSessionGrid runs -sim.schedules seeded schedules (seeds 1
// on), and replays the first few to check that a seed determines its
// effect trace. With -sim.seed it runs that schedule alone and logs its
// trace.
func TestSimulatedSessionGrid(t *testing.T) {
	all := make([]simClose, simIntervals)
	for i := range all {
		all[i] = simClose{interval: i, leaves: []int{0}}
	}
	if !slices.ContainsFunc(simFix().reference(1, all), func(rep *core.Report) bool { return len(rep.ItemSets) > 0 }) {
		t.Fatal("the simulator's trace mines nothing, so its schedules would not cover extraction")
	}
	if *simSeed >= 0 {
		r := runSchedule(t, *simSeed, true)
		t.Logf("seed %d: %s", *simSeed, r.describe())
		for _, line := range r.trace {
			t.Log(line)
		}
		return
	}
	for seed := int64(1); seed <= int64(*simSchedules); seed++ {
		if runSchedule(t, seed, false).failed {
			return
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		if a, b := runSchedule(t, seed, false).hash, runSchedule(t, seed, false).hash; a != b {
			t.Fatalf("seed %d: effect trace hashes %x and %x differ between two runs", seed, a, b)
		}
	}
}

// FuzzSessionSchedule runs the simulator on fuzzed seeds.
func FuzzSessionSchedule(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { runSchedule(t, seed, false) })
}

// simFixture is what every schedule shares: the configuration, the trace
// cut among 1 to 4 leaves, each leaf's encoded interval frames, and the
// memoized reference reports.
type simFixture struct {
	cfg    core.Config
	digest uint64
	parts  [5][][][]flow.Record // [leaves][leaf][interval]
	frames [5][][][]byte
	refs   map[string][]*core.Report
}

var simFix = sync.OnceValue(func() *simFixture {
	f := &simFixture{
		cfg:  core.Config{Detector: detector.Config{Bins: 32, TrainIntervals: 2, Seed: 3}, RelativeSupport: 0.25, Workers: 1},
		refs: map[string][]*core.Report{},
	}
	f.digest = configDigest(f.cfg)
	trace := gridtest.Trace(simIntervals, 60, 4)
	for n := 1; n <= 4; n++ {
		f.parts[n] = gridtest.Partition(trace, n)
		f.frames[n] = make([][][]byte, n)
		for leaf, part := range f.parts[n] {
			p := simPipeline(f.cfg)
			for i, recs := range part {
				p.ObserveBatch(recs)
				oi := p.DrainOpenInterval()
				payload := append(appendVarint(nil, simBoundary(i)), codecVersion)
				f.frames[n][leaf] = append(f.frames[n][leaf], new(encoder).appendOpenInterval(payload, oi))
				p.RecycleOpenInterval(oi)
			}
			p.Close()
		}
	}
	return f
})

func simPipeline(cfg core.Config) *core.Pipeline {
	p, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// simClose is one report's ground truth: its interval, the global
// leaves whose frames it absorbed, and those it must flag Partial, the
// others but those whose stream had ended; each ascending.
type simClose struct {
	interval        int
	leaves, partial []int
}

// reference returns gridtest.Oracle's reports over the closes in order,
// each over its absorbed leaves' records, flagged Partial as it says.
func (f *simFixture) reference(leaves int, closes []simClose) []*core.Report {
	key := fmt.Sprint(leaves, closes)
	if reps, ok := f.refs[key]; ok {
		return reps
	}
	trace := make([][]flow.Record, len(closes))
	for k, c := range closes {
		for _, leaf := range c.leaves {
			trace[k] = append(trace[k], f.parts[leaves][leaf][c.interval]...)
		}
	}
	reps := gridtest.Oracle(f.cfg, trace)
	for k, c := range closes {
		reps[k].Partial = c.partial
	}
	f.refs[key] = reps
	return reps
}

// simRun is one schedule.
type simRun struct {
	t     testing.TB
	fix   *simFixture
	seed  int64
	rng   *rand.Rand
	now   int64
	seq   int
	queue simQueue
	log   bool
	trace []string
	hash  uint64

	tp      []int
	nLeaves int
	hold    int64
	ckpt    bool // the root writes checkpoints
	replay  int  // the leaves' ReplayBuffer
	root    *simNode
	relays  []*simNode
	leaves  []*simAgent

	reports   []*core.Report
	closes    []simClose
	scriptEnd int64
	faults    []string
	// faulted marks the leaves a lasting fault may cost frames (see
	// fault).
	faulted []bool
	ended   bool
	endAt   int64
	failed  bool
}

// simEvent is one scheduled action.
type simEvent struct {
	at  int64
	seq int
	fn  func()
}

type simQueue []*simEvent

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(*simEvent)) }
func (q *simQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

func (r *simRun) after(d int64, fn func()) {
	r.seq++
	heap.Push(&r.queue, &simEvent{at: r.now + d, seq: r.seq, fn: fn})
}

// latency draws a link's one-way delay.
func (r *simRun) latency() int64 { return 1 + r.rng.Int63n(8) }

// note records one effect or fault in the trace: its hash always, its
// text when the run logs.
func (r *simRun) note(format string, args ...any) {
	h := fnv.New64a()
	b := binary.AppendVarint(nil, r.now)
	b = append(b, format...)
	for _, arg := range args {
		switch v := arg.(type) {
		case int:
			b = binary.AppendVarint(b, int64(v))
		case int64:
			b = binary.AppendVarint(b, v)
		case string:
			b = append(b, v...)
		default:
			b = fmt.Append(b, v)
		}
	}
	h.Write(b)
	r.hash = r.hash*31 + h.Sum64()
	if r.log {
		r.trace = append(r.trace, fmt.Sprintf("%6d ", r.now)+fmt.Sprintf(format, args...))
	}
}

func (r *simRun) fail(format string, args ...any) {
	if !r.failed {
		r.failed = true
		r.t.Errorf("sim seed %d (%s; replay with -sim.seed=%d) at %d ms: %s",
			r.seed, r.describe(), r.seed, r.now, fmt.Sprintf(format, args...))
	}
}

func (r *simRun) describe() string {
	ckpts := []bool{r.ckpt}
	for _, n := range r.relays {
		ckpts = append(ckpts, n.ckpt)
	}
	return fmt.Sprintf("topology %v, hold %d, replay buffer %d, checkpoints %v, faults [%s]",
		r.tp, r.hold, r.replay, ckpts, strings.Join(r.faults, "; "))
}

// runSchedule builds and runs the schedule seed draws and checks it.
func runSchedule(t testing.TB, seed int64, log bool) *simRun {
	r := &simRun{t: t, fix: simFix(), seed: seed, rng: rand.New(rand.NewSource(seed)), log: log}
	r.build()
	for !r.ended && !r.failed && r.queue.Len() > 0 {
		ev := heap.Pop(&r.queue).(*simEvent)
		r.now = ev.at
		ev.fn()
	}
	defer r.release()
	if r.failed {
		return r
	}
	switch bound := r.bound(); {
	case !r.ended && !r.root.waitsForGone():
		r.fail("the session never ended: nothing left to happen")
		return r
	case r.ended && r.endAt > bound:
		r.fail("the session ended at %d ms, past its bound of %d ms", r.endAt, bound)
		return r
	}
	want := r.fix.reference(r.nLeaves, r.closes)
	gridtest.Equal(simTB{t, r}, r.reports, want, r.nLeaves)
	r.checkComplete()
	return r
}

// checkComplete holds every leaf with no lasting fault on its path to
// its frame in each of the root's reports up to the end of its stream;
// without a hold, every leaf. A relay ships a boundary once for all its
// leaves, so one leaf's fault is its siblings': the relay's hold for it
// may outlast the root's.
func (r *simRun) checkComplete() {
	faulted := slices.Clone(r.faulted)
	for leaf := range faulted {
		if len(r.relays) > 0 {
			first := leaf - leaf%r.tp[1]
			faulted[leaf] = slices.Contains(r.faulted[first:first+r.tp[1]], true)
		}
		if faulted[leaf] && r.hold > 0 {
			continue
		}
		for i := range r.leaves[leaf].last {
			if k := slices.IndexFunc(r.closes, func(c simClose) bool { return c.interval == i }); k < 0 || !slices.Contains(r.closes[k].leaves, leaf) {
				r.fail("the root reported interval %d without leaf %d, or not at all, though no lasting fault lay on its path", i, leaf)
				return
			}
		}
	}
}

// fault marks agent a's leaves — a relay face's span — as ones a lasting
// fault may cost frames: it fell silent or died, or its relay did; or,
// with a hold shorter than the gap between ships, a lost connection or a
// crashed parent stranded frames in its replay buffer, which an agent
// resends only when it next ships, or its relay was down for longer
// than the root's hold.
func (r *simRun) fault(a *simAgent) {
	if a.relay == nil {
		r.faulted[a.leaf] = true
		return
	}
	for leaf := a.relay.leafBase; leaf < a.relay.leafBase+len(a.relay.kids); leaf++ {
		r.faulted[leaf] = true
	}
}

// strand faults a, with a short hold, when it holds unacked frames above
// line, which its parent does not hold.
func (r *simRun) strand(a *simAgent, line int64) {
	if r.hold > 0 && r.hold < simStep && slices.ContainsFunc(a.s.replay, func(e replayEntry) bool { return e.boundary > line }) {
		r.fault(a)
	}
}

// waitsForGone reports whether the node is open only for children gone
// for good (dead, or silent) before their Bye, with nothing queued, and
// lost by their parent: the end of a stream is
// no boundary, so no hold runs for it, and the session waits for a Bye
// its collector cannot tell from one a redial will still bring (see
// session.go). A relay child waiting so makes its parent wait too.
func (n *simNode) waitsForGone() bool {
	if n.down || n.done {
		return false
	}
	for id, a := range n.kids {
		st := &n.s.ag[id]
		switch {
		case len(st.queue) > 0 || st.byeOwed:
			return false
		case st.status == statusBye || st.status == statusDead:
		case a.relay != nil && a.relay.waitsForGone():
		case !a.gone && a.silentUntil >= 0 || st.connected:
			return false
		}
	}
	return true
}

// simTB prefixes a failing schedule's reference mismatch with its seed.
type simTB struct {
	testing.TB
	r *simRun
}

func (s simTB) Fatalf(format string, args ...any) {
	s.r.fail(format, args...)
	s.TB.FailNow()
}

// bound is the virtual time by which the session must have ended: the
// end of the schedule's script, plus link and redial slack, plus with a
// hold one hold per leaf and tier.
func (r *simRun) bound() int64 {
	return r.scriptEnd + 500 + r.hold*int64(2*(r.nLeaves+len(r.tp)))
}

func (r *simRun) release() {
	for _, n := range append([]*simNode{r.root}, r.relays...) {
		if n.p != nil {
			n.p.Close()
			n.p = nil
		}
	}
}

// build draws the schedule and stands the tree up.
func (r *simRun) build() {
	tps := [][]int{{1}, {2}, {3}, {2, 2}, {2, 2}}
	r.tp = tps[r.rng.Intn(len(tps))]
	r.nLeaves = 1
	for _, f := range r.tp {
		r.nLeaves *= f
	}
	switch r.rng.Intn(4) {
	case 1, 2:
		r.hold = simShortHold
	case 3:
		r.hold = simLongHold
	}
	r.faulted = make([]bool, r.nLeaves)
	r.ckpt = r.rng.Intn(2) == 0
	r.replay = []int{1, 64}[r.rng.Intn(2)]

	r.root = r.newNode("root", r.tp[0], 0, false)
	r.root.ckpt = r.ckpt
	r.root.start()
	parents := []*simNode{r.root}
	if len(r.tp) == 2 {
		parents = nil
		for id := range r.tp[0] {
			relay := r.newNode(fmt.Sprintf("relay%d", id), r.tp[1], id*r.tp[1], true)
			relay.ckpt = r.rng.Intn(2) == 0
			relay.start()
			relay.up = r.newAgent(relay.name, id, r.root, -1, AgentOptions{}.withDefaults().ReplayBuffer)
			relay.up.relay, relay.up.s.spanLo, relay.up.s.spanLen = relay, relay.leafBase, r.tp[1]
			r.root.kids[id] = relay.up
			r.relays = append(r.relays, relay)
			parents = append(parents, relay)
		}
	}
	for leaf := range r.nLeaves {
		parent := parents[leaf/len(parents[0].kids)]
		a := r.newAgent(fmt.Sprintf("leaf%d", leaf), leaf%len(parent.kids), parent, leaf, r.replay)
		parent.kids[a.s.id] = a
		r.leaves = append(r.leaves, a)
	}

	// Every agent dials at once; leaf i ships interval k around
	// start_i + k·simStep.
	for _, relay := range r.relays {
		relay.up.dial(0)
	}
	for _, a := range r.leaves {
		a.start = r.rng.Int63n(20)
		a.dial(a.start)
		r.after(a.start, a.tick)
	}
	r.scriptEnd = 20 + simIntervals*simStep + 20
	r.faultScript()
}

// faultScript draws up to three faults. With no hold only faults that
// heal are drawn, and one leaf keeps a path to the root with no lasting
// fault.
func (r *simRun) faultScript() {
	survivor := r.rng.Intn(r.nLeaves)
	survivorRelay := -1
	if len(r.relays) > 0 {
		survivorRelay = survivor / r.tp[1]
	}
	// In a flat topology a leaf other than the survivor may end its
	// stream early, as an agent whose traffic stops does. Not in the
	// tree, yet: a relay whose leaves have all ended, some of them dead,
	// says Bye upstream, and the root then stops naming the dead ones
	// Partial.
	if len(r.relays) == 0 && r.rng.Intn(3) == 0 {
		if a := r.leaves[r.rng.Intn(r.nLeaves)]; a.leaf != survivor {
			a.last = 1 + r.rng.Intn(simIntervals-1)
			r.faults = append(r.faults, fmt.Sprintf("%s ends after %d intervals", a.name, a.last))
		}
	}
	// One checkpointed node may crash: the root, or a relay of the tree.
	var crashable []*simNode
	for _, n := range append([]*simNode{r.root}, r.relays...) {
		if n.ckpt {
			crashable = append(crashable, n)
		}
	}
	edge := func() *simAgent { // a leaf, or a relay's face
		if len(r.relays) > 0 && r.rng.Intn(3) == 0 {
			return r.relays[r.rng.Intn(len(r.relays))].up
		}
		return r.leaves[r.rng.Intn(r.nLeaves)]
	}
	crashed := false
	for range r.rng.Intn(5) {
		at := r.rng.Int63n(r.scriptEnd)
		switch kind := r.rng.Intn(6); {
		case kind == 0: // cut an edge
			a := edge()
			// Maybe its next connection too, once accepted: the parent
			// then loses a connection that never carried the frames it
			// holds of the agent.
			twice := r.rng.Intn(2) == 0
			if r.rng.Intn(2) == 0 {
				// Right after the parent reads a frame, as a link that breaks
				// under load does: the agent is down until its next ship.
				k := simBoundary(r.rng.Intn(simIntervals))
				r.faults = append(r.faults, fmt.Sprintf("cut %s after frame %d (twice %v)", a.name, k, twice))
				a.onRead = func(c *simConn, typ byte, b int64) {
					if typ != frameBye && b == k {
						r.note("fault: cut %s after frame %d", a.name, b)
						c.cut()
						a.recut, a.onRead = twice, nil
					}
				}
				break
			}
			r.faults = append(r.faults, fmt.Sprintf("cut %s at %d (twice %v)", a.name, at, twice))
			r.after(at, func() {
				if a.conn != nil {
					r.note("fault: cut %s", a.name)
					a.conn.cut()
					a.recut = twice
				}
			})
		case kind == 1: // silence a leaf
			a := r.leaves[r.rng.Intn(r.nLeaves)]
			until := at + 20 + r.rng.Int63n(3*simStep)
			if r.hold > 0 && a.leaf == survivor {
				break // with a hold, a long silence is a lasting fault
			}
			if r.hold > 0 && r.rng.Intn(3) == 0 {
				until = -1
			}
			if a.silentUntil == 0 {
				a.silentFrom, a.silentUntil = at, until
				r.fault(a)
				r.faults = append(r.faults, fmt.Sprintf("silence %s over [%d,%d)", a.name, at, until))
				r.scriptEnd = max(r.scriptEnd, until+simIntervals*simStep)
			}
		case kind == 2 && r.hold > 0: // a leaf or a relay dies for good
			if r.rng.Intn(2) == 0 {
				at = r.rng.Int63n(20) // before its first frame
			}
			if len(r.relays) > 0 && r.rng.Intn(2) == 0 {
				if id := r.rng.Intn(len(r.relays)); id != survivorRelay {
					n := r.relays[id]
					r.faults = append(r.faults, fmt.Sprintf("%s dies at %d", n.name, at))
					r.after(at, n.die)
				}
			} else if a := r.leaves[r.rng.Intn(r.nLeaves)]; a.leaf != survivor {
				r.faults = append(r.faults, fmt.Sprintf("%s dies at %d", a.name, at))
				r.after(at, a.die)
			}
		case kind == 3: // cut an edge between its Bye and the ByeOK
			a := edge()
			r.faults = append(r.faults, fmt.Sprintf("cut %s after its Bye", a.name))
			a.onRead = func(c *simConn, typ byte, _ int64) {
				if typ == frameBye {
					r.note("fault: cut %s after its Bye", a.name)
					c.cut()
				}
			}
		case kind >= 4 && len(crashable) > 0 && !crashed: // a checkpointed node crashes
			crashed = true
			n := crashable[r.rng.Intn(len(crashable))]
			if kind == 4 {
				r.faults = append(r.faults, fmt.Sprintf("%s crashes at %d", n.name, at))
				r.after(at, n.crash)
			} else {
				n.crashAt = 1 + r.rng.Intn(2*simIntervals)
				r.faults = append(r.faults, fmt.Sprintf("%s crashes in its effect #%d", n.name, n.crashAt))
			}
			r.scriptEnd += 200
		}
	}
}

// simNode is a collector-side node, the root or a relay: a session core
// with the simulator as its driver.
type simNode struct {
	r        *simRun
	name     string
	relay    bool
	leafBase int
	kids     []*simAgent // by child ID
	ckpt     bool        // the node writes checkpoints
	up       *simAgent   // a relay's upstream face
	// crashAt crashes the node inside its crashAt-th emit, ship or
	// checkpoint write; effects counts them.
	crashAt, effects int

	s     *session
	p     *core.Pipeline
	inc   int        // incarnation; a crash starts the next
	conns []*simConn // each child's accepted connection
	all   []*simConn // every connection of this incarnation
	free  [][]*intervalDecoder
	hello *simConn // the connection whose hello is being answered
	hold  int      // token of the armed hold; a stop or fire bumps it
	down  bool     // crashed, not yet restarted, or dead
	done  bool     // its session finished

	// Ground truth. took and leaves are the children and global leaves
	// absorbed in the close under way; leavesOf names the leaves of each
	// queued frame, by its decoder; ended marks the children whose Bye
	// this incarnation read or restored; shipped maps a relay's shipped
	// frames, by their bytes, to their leaves (a relay resumed from a
	// checkpoint may close a boundary again with other leaves);
	// excusable marks the children a hold ran out on since their last
	// frame or hello; tops is each child's highest frame delivered in
	// this incarnation; closed is the last closed boundary and written
	// the last checkpoint's bytes and line.
	took      []int
	leaves    []int
	leavesOf  map[*intervalDecoder][]int
	ended     []bool
	shipped   map[string][]int
	excusable []bool
	tops      []int64
	closed    int64
	written   []byte
	wroteLine int64
}

func (r *simRun) newNode(name string, fanIn, leafBase int, relay bool) *simNode {
	return &simNode{r: r, name: name, relay: relay, leafBase: leafBase, kids: make([]*simAgent, fanIn),
		shipped: map[string][]int{}, excusable: make([]bool, fanIn)}
}

// start builds the node's core and pipeline, from its last checkpoint
// when it has written one: a root's history goes back into its
// pipeline, a relay's held frames into its face's new core.
func (n *simNode) start() {
	r := n.r
	n.inc++
	n.down = false
	n.p = simPipeline(r.fix.cfg)
	n.s = newSession(n, nil, len(n.kids), r.fix.digest)
	n.s.checkpointed, n.s.hold = n.ckpt, r.hold > 0
	n.s.relay, n.s.spanLo = n.relay, n.leafBase
	n.conns, n.all = make([]*simConn, len(n.kids)), nil
	n.free = make([][]*intervalDecoder, len(n.kids))
	n.leavesOf = map[*intervalDecoder][]int{}
	n.tops = make([]int64, len(n.kids))
	n.ended = make([]bool, len(n.kids))
	n.took, n.leaves = n.took[:0], n.leaves[:0]
	clear(n.excusable)
	if n.written == nil {
		if !n.relay {
			r.reports, r.closes = nil, nil
		}
		return
	}
	cp, err := decodeCheckpoint(n.written, n.relay)
	if err != nil {
		r.fail("decoding the last checkpoint: %v", err)
		return
	}
	if n.relay {
		n.up.s.preload(cp.held)
	} else if err := n.p.RestoreSnapshot(cp.hist); err != nil {
		r.fail("restoring the last checkpoint: %v", err)
		return
	} else {
		r.reports, r.closes = r.reports[:cp.emitted], r.closes[:cp.emitted]
	}
	n.s.restore(&cp)
	n.closed = cp.lastClosed
	for id, st := range cp.statuses {
		n.excusable[id] = st == statusDead // a hold ran out on it before the crash
		n.ended[id] = st == statusBye
	}
}

// apply handles what a core event method returned.
func (n *simNode) apply(err error) {
	r := n.r
	switch {
	case errors.Is(err, errSimCrash):
		n.crash()
		return
	case err != nil:
		r.fail("%s: %v", n.name, err)
		return
	}
	if n.done || n.down || !n.s.finished() {
		return
	}
	n.done = true
	r.note("%s finished", n.name)
	if n.relay {
		n.up.s.state = streamClosing
		n.up.drive()
	} else {
		r.ended, r.endAt = true, r.now
	}
}

// crash ends a checkpointed node's incarnation; it restarts from its last
// written checkpoint a little later. A relay's face goes with it: the
// restart dials with a new core, as a restarted Relay does.
func (n *simNode) crash() {
	r := n.r
	if n.down || n.done {
		return
	}
	r.note("fault: %s crashes", n.name)
	for _, a := range n.kids {
		r.strand(a, n.wroteLine) // its queue is lost with it
	}
	if n.relay && r.hold > 0 && r.hold < simStep {
		r.fault(n.up) // the root's hold runs on while it is down
	}
	n.down = true
	n.hold++
	for _, c := range n.all {
		c.cut()
	}
	if u := n.up; u != nil {
		if u.conn != nil {
			u.conn.cut()
			u.conn = nil
		}
		fresh := newStream(u.s.id, u.s.digest, u.s.limit)
		fresh.spanLo, fresh.spanLen = u.s.spanLo, u.s.spanLen
		u.s = fresh
	}
	n.p.Close()
	n.p = nil
	r.after(20+r.rng.Int63n(100), func() {
		r.note("%s restarts", n.name)
		n.start()
		if n.up != nil {
			n.up.dial(0)
		}
		n.apply(nil)
	})
}

// die ends a relay for good: its connections drop and its leaves can no
// longer reach the root.
func (n *simNode) die() {
	if n.down {
		return
	}
	n.r.note("fault: %s dies", n.name)
	n.down = true
	n.hold++
	for _, c := range n.all {
		c.cut()
	}
	n.up.die()
}

// effect counts an emit, ship or checkpoint write, and crashes the node
// inside the one crashAt names.
func (n *simNode) effect() error {
	if n.effects++; n.effects == n.crashAt {
		return errSimCrash
	}
	return nil
}

// checkAck holds an ack line to child id's commit point: at a relay, its
// parent's ack or its last written checkpoint.
func (n *simNode) checkAck(id int, line int64, what string) {
	var commit int64
	switch {
	case n.relay && n.ckpt:
		commit = max(n.up.s.acked, n.wroteLine)
	case n.relay:
		commit = n.up.s.acked
	case n.ckpt:
		commit = n.wroteLine
	default:
		commit = max(n.closed, n.tops[id])
	}
	if line > commit {
		n.r.fail("%s %s child %d up to %d, past its commit point %d", n.name, what, id, line, commit)
	}
}

// The effects.

func (n *simNode) accept(id, gen int, resume int64) {
	c := n.hello
	n.r.note("%s accept %d gen %d resume %d", n.name, id, gen, resume)
	n.checkAck(id, resume, "resumed")
	c.gen, c.accepted, c.credits = gen, true, queueCap
	n.conns[id] = c
	n.excusable[id] = false
	c.sendDown(replayEntry{typ: frameHelloOK, payload: appendBoundary(nil, resume)})
}

func (n *simNode) refuse(code uint64, err error) {
	n.r.note("%s refuse code %d: %v", n.name, code, err)
	c := n.hello
	c.refused = true
	c.sendDown(replayEntry{typ: frameError, payload: appendError(nil, code, err.Error())})
}

func (n *simNode) refund(id int) {
	if c := n.conns[id]; c != nil {
		c.credits = min(c.credits+1, queueCap)
		c.pump()
	}
}

func (n *simNode) recycle(id int, d *intervalDecoder) {
	if len(n.free[id]) <= queueCap {
		n.free[id] = append(n.free[id], d)
	}
}

func (n *simNode) ack(id int, line int64) {
	n.r.note("%s ack %d line %d", n.name, id, line)
	n.checkAck(id, line, "acked")
	n.conns[id].sendDown(replayEntry{typ: frameAck, payload: appendBoundary(nil, line)})
}

func (n *simNode) byeOK(id int) {
	n.r.note("%s byeOK %d", n.name, id)
	n.conns[id].sendDown(replayEntry{typ: frameByeOK})
	n.conns[id] = nil
}

func (n *simNode) drop(id int, handOff bool) {
	n.r.note("%s drop %d handOff %v", n.name, id, handOff)
	if handOff {
		n.r.fail("%s refused a frame of child %d", n.name, id)
	}
	c := n.conns[id]
	n.conns[id] = nil
	c.cut()
}

func (n *simNode) armHold(b int64) {
	r := n.r
	r.note("%s arm hold %d", n.name, b)
	if r.hold == 0 {
		r.fail("%s armed a hold with none configured", n.name)
	}
	n.hold++
	token := n.hold
	r.after(r.hold, func() {
		if n.hold != token || n.down {
			return
		}
		n.hold++
		r.note("%s hold fires %d", n.name, b)
		for id := range n.excusable {
			n.excusable[id] = true
		}
		n.apply(n.s.holdFired(b))
	})
}

func (n *simNode) stopHold() {
	n.r.note("%s stop hold", n.name)
	n.hold++
}

func (n *simNode) absorb(id int, fr queuedFrame) error {
	r := n.r
	r.note("%s absorb %d boundary %d", n.name, id, fr.boundary)
	if err := n.p.AbsorbOpenInterval(fr.oi); err != nil {
		return err
	}
	leaves := n.leavesOf[fr.dec]
	n.recycle(id, fr.dec)
	records := 0
	for _, leaf := range leaves {
		records += len(r.fix.parts[r.nLeaves][leaf][simInterval(fr.boundary)])
	}
	if got := fr.oi.Buffer.Len(); got != records {
		r.fail("%s absorbed %d records from child %d for %d, want %d of leaves %v", n.name, got, id, fr.boundary, records, leaves)
	}
	n.took = append(n.took, id)
	n.leaves = append(n.leaves, leaves...)
	return nil
}

// closeChecks checks a close of b that names missing: missing must be
// exactly the leaves of the node's span it did not absorb, but those
// whose stream ended before b with a Bye their parent has read; and no
// child whose Bye the node has not read is left out unless a hold ran
// out on it since its last frame or hello. It returns the leaves
// absorbed and the missing ones.
func (n *simNode) closeChecks(b int64, missing []int) (leaves, want []int) {
	r := n.r
	slices.Sort(n.leaves)
	leaves = slices.Clone(n.leaves)
	lo, hi := 0, r.nLeaves
	if n.relay {
		lo, hi = n.leafBase, n.leafBase+len(n.kids)
	}
	for leaf := lo; leaf < hi; leaf++ {
		if a := r.leaves[leaf]; !slices.Contains(leaves, leaf) && (simInterval(b) < a.last || !a.parent.ended[a.s.id]) {
			want = append(want, leaf)
		}
	}
	if !slices.Equal(missing, want) {
		r.fail("%s closed %d naming %v missing; it absorbed leaves %v, so %v are", n.name, b, missing, leaves, want)
	}
	for id := range n.kids {
		if !slices.Contains(n.took, id) && !n.excusable[id] && !n.ended[id] {
			r.fail("%s closed %d without child %d, though no hold ran out on it since its last frame or hello", n.name, b, id)
		}
	}
	n.took, n.leaves = n.took[:0], n.leaves[:0]
	n.closed = b
	return leaves, want
}

func (n *simNode) emit(b int64, partial []int) error {
	r := n.r
	if err := n.effect(); err != nil {
		return err
	}
	rep, err := n.p.EndInterval()
	if err != nil {
		return err
	}
	rep.Partial = partial
	r.note("%s emit %d partial %v", n.name, b, partial)
	leaves, want := n.closeChecks(b, partial)
	r.reports = append(r.reports, rep)
	r.closes = append(r.closes, simClose{interval: simInterval(b), leaves: leaves, partial: want})
	return nil
}

// ship hands the merged interval to the relay's face, which skips a
// boundary its parent already holds, as Agent.ship does.
func (n *simNode) ship(b int64, missing []int) error {
	if err := n.effect(); err != nil {
		return err
	}
	oi := n.p.DrainOpenInterval()
	payload := appendRelayPayload(nil, b, n.leafBase, len(n.kids), missing, oi)
	n.p.RecycleOpenInterval(oi)
	n.r.note("%s ship %d missing %v", n.name, b, missing)
	leaves, _ := n.closeChecks(b, missing)
	_, ok, err := n.up.s.admit(b)
	if ok {
		n.shipped[string(payload)] = leaves
		n.up.s.offer = replayEntry{typ: frameRelayInterval, boundary: b, payload: payload}
		n.up.drive()
	}
	return err
}

func (n *simNode) checkpoint(cp checkpoint) error {
	r := n.r
	if err := n.effect(); err != nil {
		return err
	}
	if n.relay {
		cp.relay, cp.held = true, n.up.s.held()
	} else {
		cp.hist = n.p.Snapshot()
	}
	n.written, n.wroteLine = appendCheckpoint(nil, cp), cp.lastClosed
	r.note("%s checkpoint %d", n.name, cp.lastClosed)
	return nil
}

// simAgent is the sending end of an edge, a leaf or a relay's upstream
// face: the real agent core (stream.go) with the simulator as its
// driver, which keeps only timing and faults. It carries out the core's
// steps as Agent does, without blocking: a dial is scheduled, and a wait
// ends when the parent's frame that ends it arrives. A leaf ships when its
// interval is due, or, when the core still holds its last ship (a full
// replay buffer, or no connection), as soon as it lets go, as
// ShipOpenInterval blocks. The simulator never writes into a payload the
// core recycles, so fixture frames stay intact.
type simAgent struct {
	r      *simRun
	name   string
	parent *simNode
	leaf   int      // global leaf ID; -1 for a relay's face
	relay  *simNode // the relay a face ships for
	s      stream

	conn    *simConn
	dialing bool
	fails   int
	recut   bool // cut the next connection at its HelloOK
	// onRead, when set, sees each frame of the agent's the parent reads,
	// and its Bye: a scripted cut.
	onRead  func(c *simConn, typ byte, b int64)
	gone    bool // dead for good, or gave up dialing
	blocked bool // a due ship waits for the core to let go of the last one
	start   int64
	// next is a leaf's next interval to ship, and last its stream's end.
	next, last              int
	silentFrom, silentUntil int64
}

func (r *simRun) newAgent(name string, id int, parent *simNode, leaf, replay int) *simAgent {
	return &simAgent{r: r, name: name, parent: parent, leaf: leaf, last: simIntervals,
		s: newStream(id, r.fix.digest, replay)}
}

// tick ships the leaf's next interval when it is due and the leaf is not
// silent, then closes after the last.
func (a *simAgent) tick() {
	r := a.r
	if a.gone {
		return
	}
	if a.silentUntil != 0 && r.now >= a.silentFrom && (a.silentUntil < 0 || r.now < a.silentUntil) {
		if a.silentUntil > 0 {
			r.after(a.silentUntil-r.now, a.tick)
		}
		return
	}
	if a.drive() != stepIdle {
		a.blocked = true
		return
	}
	i := a.next
	a.next++
	if _, ok, err := a.s.admit(simBoundary(i)); !ok {
		r.fail("%s ships %d: %v", a.name, simBoundary(i), err)
		return
	}
	a.s.offer = replayEntry{typ: frameOpenInterval, boundary: simBoundary(i), payload: r.fix.frames[r.nLeaves][a.leaf][i]}
	if a.next == a.last {
		a.s.state = streamClosing
	} else {
		r.after(max(0, a.start+int64(a.next)*simStep+r.rng.Int63n(10)-r.now), a.tick)
	}
	a.drive()
}

// drive carries out the core's steps until it waits or idles, and
// returns that step. An idle core lets a blocked ship go.
func (a *simAgent) drive() step {
	for {
		switch st := a.s.step(); st {
		case stepSend:
			frames, bye := a.s.unsent()
			if a.conn.dead && len(frames) > 0 {
				a.r.strand(a, frames[0].boundary-1) // lost until the agent notices and next ships
			}
			for _, e := range frames {
				a.conn.sendUp(e)
			}
			if bye {
				a.conn.sendUp(replayEntry{typ: frameBye})
			}
			a.s.wrote()
		case stepDial:
			a.dial(0)
			return st
		default:
			if st == stepIdle && a.blocked {
				a.blocked = false
				a.r.after(0, a.tick)
			}
			return st
		}
	}
}

func (a *simAgent) die() {
	if a.gone {
		return
	}
	a.r.note("fault: %s dies", a.name)
	a.gone = true
	a.r.fault(a)
	if a.conn != nil {
		a.conn.cut()
	}
}

// dial connects after d, retrying with backoff while the parent is down.
// A crashed relay's face dials only once the relay restarts.
func (a *simAgent) dial(d int64) {
	if a.dialing || a.gone || a.s.finished() {
		return
	}
	a.dialing = true
	a.r.after(d, func() {
		a.dialing = false
		if a.gone || a.s.finished() || a.conn != nil || a.relay != nil && a.relay.down {
			return
		}
		p := a.parent
		if p.down || p.done {
			if a.fails++; a.fails > simGiveUp {
				a.r.note("%s gives up", a.name)
				a.gone = true
				return
			}
			a.dial(5 + a.r.rng.Int63n(15))
			return
		}
		a.fails = 0
		c := &simConn{r: a.r, a: a, n: p, inc: p.inc}
		p.all = append(p.all, c)
		a.conn = c
		a.r.note("%s dials %s", a.name, p.name)
		c.sendUp(replayEntry{typ: frameHello, payload: appendHello(nil, a.s.hello())})
	})
}

// receive feeds one parent→agent frame to the core: the first on a
// connection is the hello's reply. A relay's face hands its new ack
// line to its relay's core.
func (a *simAgent) receive(c *simConn, it replayEntry) {
	r := a.r
	acked, ended := a.s.acked, a.s.state == streamEnded
	if !a.s.up {
		if a.recut && it.typ == frameHelloOK {
			a.recut = false
			r.note("fault: cut %s again", a.name)
			c.cut()
			return
		}
		if err := a.s.resume(it.typ, it.payload); err != nil {
			r.fail("%s: %v", a.name, err)
			return
		}
	} else if !a.s.received(it.typ, it.payload) {
		c.cut()
	}
	if a.s.err != nil {
		r.fail("%s: the stream failed: %v", a.name, a.s.err)
		return
	}
	if !ended && a.s.state == streamEnded {
		r.note("%s closed", a.name)
	}
	if rl := a.relay; rl != nil && a.s.acked > acked && !rl.down {
		rl.apply(rl.s.upstreamAck(a.s.acked))
	}
	a.drive()
}

// lost is the agent noticing its connection broke: a ship or Bye under
// way redials.
func (a *simAgent) lost() {
	a.conn = nil
	a.s.lost()
	a.drive()
}

// simConn is one connection: agent→parent frames in order, read only
// while an ingest credit is left, and parent→agent frames in order.
type simConn struct {
	r        *simRun
	a        *simAgent
	n        *simNode
	inc      int // the parent's incarnation it was dialed to
	gen      int
	hello    hello
	accepted bool
	refused  bool
	dead     bool
	// read: the parent has read the hello; byeRead: its Bye, after which
	// the reader is gone. lostSent: the reader has reported the loss.
	read, byeRead, lostSent bool
	credits                 int
	last                    int64
	up, down                []replayEntry // frames in flight, of any type
	upBusy, downBusy        bool
}

func (c *simConn) sendUp(it replayEntry) {
	if !c.dead {
		c.up = append(c.up, it)
		c.pump()
	}
}

func (c *simConn) sendDown(it replayEntry) {
	if !c.dead {
		c.down = append(c.down, it)
		c.pumpDown()
	}
}

// cut breaks the connection: what is in flight is lost, the agent
// notices after a delay, and the parent's reader when it next reads.
func (c *simConn) cut() {
	if c.dead {
		return
	}
	if c.a.conn == c && c.current() {
		c.r.strand(c.a, c.n.s.ag[c.a.s.id].tail())
	}
	c.dead = true
	c.up, c.down = nil, nil
	c.pump()
	c.r.after(c.r.latency(), func() {
		if c.a.conn == c {
			c.a.lost()
		}
	})
}

// current reports whether the connection's parent incarnation still runs.
func (c *simConn) current() bool { return c.n.inc == c.inc && !c.n.down }

// pump schedules the parent's next read: the hello, or, with a credit,
// the next frame or the loss of a broken connection.
func (c *simConn) pump() {
	if c.upBusy || c.refused || c.byeRead || (c.read && (!c.accepted || c.credits == 0)) {
		return
	}
	if c.dead {
		if c.accepted && !c.lostSent {
			c.lostSent, c.upBusy = true, true
			c.r.after(c.r.latency(), func() {
				c.upBusy = false
				if c.current() {
					c.n.apply(c.n.s.lost(c.a.s.id, c.gen, false))
				}
			})
		}
		return
	}
	if len(c.up) > 0 {
		c.upBusy = true
		c.r.after(c.r.latency(), func() {
			c.upBusy = false
			c.readUp()
		})
	}
}

func (c *simConn) readUp() {
	if c.dead || !c.current() {
		c.pump()
		return
	}
	r, n, id := c.r, c.n, c.a.s.id
	it := c.up[0]
	c.up = c.up[1:]
	if !c.read {
		c.read = true
		h, err := decodeHello(it.payload)
		if err != nil {
			r.fail("%s: decoding %s's hello: %v", n.name, c.a.name, err)
			return
		}
		c.hello = h
		n.hello = c
		n.apply(n.s.hello(h))
		n.hello = nil
		c.pump()
		return
	}
	c.credits--
	if it.typ == frameBye {
		c.byeRead = true
		n.ended[id] = n.ended[id] || c.gen == n.s.ag[id].gen
		n.apply(n.s.bye(id, c.gen))
		if c.a.onRead != nil {
			c.a.onRead(c, frameBye, 0)
		}
		return
	}
	var d *intervalDecoder
	if k := len(n.free[id]); k > 0 {
		d, n.free[id] = n.free[id][k-1], n.free[id][:k-1]
	} else {
		d = new(intervalDecoder)
	}
	fr, err := d.decodePayload(it.typ, it.payload)
	if err == nil && (fr.boundary <= c.last || fr.spanLo != c.hello.spanLo || fr.spanLen != c.hello.spanLen) {
		err = fmt.Errorf("boundary %d after %d, span [%d,+%d) after a hello declaring [%d,+%d)",
			fr.boundary, c.last, fr.spanLo, fr.spanLen, c.hello.spanLo, c.hello.spanLen)
	}
	if err != nil {
		r.fail("%s: frame from %s: %v", n.name, c.a.name, err)
		return
	}
	n.leavesOf[d] = []int{c.a.leaf}
	if c.a.relay != nil {
		n.leavesOf[d] = c.a.relay.shipped[string(it.payload)]
	}
	c.last = fr.boundary
	if n.conns[id] == c {
		n.excusable[id] = false
		n.tops[id] = max(n.tops[id], fr.boundary)
	}
	n.apply(n.s.frame(id, c.gen, fr))
	if c.a.onRead != nil {
		c.a.onRead(c, it.typ, fr.boundary)
	}
	c.pump()
}

func (c *simConn) pumpDown() {
	if c.downBusy || c.dead || len(c.down) == 0 {
		return
	}
	c.downBusy = true
	c.r.after(c.r.latency(), func() {
		c.downBusy = false
		if c.dead || len(c.down) == 0 {
			return
		}
		it := c.down[0]
		c.down = c.down[1:]
		if c.a.conn == c && !c.a.gone {
			c.a.receive(c, it)
		}
		if it.typ == frameError {
			c.cut()
			return
		}
		c.pumpDown()
	})
}
