package wire_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/gridtest"
	"anomalyx/internal/wire"
	"anomalyx/internal/wire/metrics"
)

// topology is a collector tree given by its fan-outs from the root: {4}
// is a collector over four agents, {2, 2} a root over two relays of two
// agents each, {1, 2, 2} a root over one relay over two relays of two
// agents each.
type topology []int

// leaves returns the number of agents at the bottom of the tree.
func (tp topology) leaves() int {
	n := 1
	for _, f := range tp {
		n *= f
	}
	return n
}

// node names a node of a tree: tier 0 is the root and tier len(tp) the
// leaves, and idx counts a tier's nodes from the left, so a leaf's idx
// is its global leaf ID.
type node struct{ tier, idx int }

// row is one distributed session under test: a collector tree, the
// intervals its leaves ship, and the faults scripted against it. Every
// row is held to the same checks (see run); nothing is checked per row.
type row struct {
	tp topology
	// shards0 is leaf 0's count of local partitions (0 takes 1; the
	// other leaves run one).
	shards0 int
	// cfg and trace default to gridtest.Config() and the grid trace.
	cfg   *core.Config
	trace [][]flow.Record
	// tiers sets Policy and HoldTimeout of each tier's collectors, tier 0
	// being the root.
	tiers map[int]wire.CollectorConfig
	// ships limits a leaf to the intervals [from, to); the others ship
	// every interval.
	ships map[int][2]int
	// dies maps a leaf to an interval k: the leaf ships the intervals
	// before k and its machine dies — no Bye, no redial.
	dies map[int]int
	// cuts scripts a chaosProxy on a node's upstream edge.
	cuts map[node][]int
	// holes blackholes a node's upstream edge: its first connection
	// forwards n frames and swallows the rest, staying up.
	holes map[node]int
	// crash names the root or a relay that crashes at interval at. Every
	// leaf ships the intervals before at and holds; a relay is killed
	// once it has closed them, the root fails as it emits interval
	// at-1's report. It restarts from its checkpoint on a new listener,
	// and the leaves go on. fresh gives a crashed relay no checkpoint:
	// it restarts empty, and its children's replay buffers alone carry
	// what it lost.
	crash *node
	at    int
	fresh bool
	// resume maps a node to the testdata checkpoint it resumes from; the
	// leaves then ship from interval from on, the intervals before it
	// having been shipped in the recorded session.
	resume map[node]string
	from   int
}

// fastRetry is the redial policy of the harness's agents and relays:
// plenty of attempts with millisecond backoff, so a scripted cut heals
// in wall-time noise instead of the production default's seconds.
func fastRetry() wire.RetryConfig {
	return wire.RetryConfig{MaxAttempts: 400, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

// bnd maps an interval ordinal to its boundary on the harness's grid:
// interval i of a row's trace ends bnd(i) ms after the epoch.
func bnd(i int) int64 { return int64(i+1) * 900_000 }

// errCrash is the root's injected crash: its emit callback fails, as a
// full disk or a kill -9 would end it.
var errCrash = errors.New("injected collector crash")

// run serves r's tree on loopback TCP, drives its leaves through their
// scripts and checks the session:
//   - the root's reports equal gridtest.Reference over the records the
//     leaves shipped, Partial naming the dead leaves from their death
//     interval on;
//   - every cut edge's proxy saw at least 2 connections, and the child
//     behind it at least 1 reconnect in its parent's metrics, as does a
//     restarted relay;
//   - dead leaves end dead in their parent's metrics, every other node
//     bye;
//   - the root's reports_emitted adds up to the reports;
//   - no goroutine and no descriptor outlives the row.
func (r row) run(t *testing.T) {
	gridtest.NoLeak(t)
	cfg, trace := gridtest.Config(), r.trace
	if r.cfg != nil {
		cfg = *r.cfg
	}
	if trace == nil {
		trace = gridtest.Trace(10, 1500, 8)
	}
	// Shift the trace onto the grid on which interval i ends at bnd(i),
	// the grid the recorded checkpoints were written on.
	step := gridtest.IntervalLen.Milliseconds()
	shift := trace[0][0].Start / step * step
	for _, recs := range trace {
		for j := range recs {
			recs[j].Start -= shift
			recs[j].End -= shift
		}
	}
	leaves := r.tp.leaves()
	parts := gridtest.Partition(trace, leaves)

	shipped := make([][]flow.Record, len(trace))
	for leaf, part := range parts {
		from, to := r.window(leaf, len(trace))
		for i := from; i < to; i++ {
			shipped[i] = append(shipped[i], part[i]...)
		}
	}
	want := gridtest.Reference(t, cfg, shipped)
	for leaf := range leaves {
		if k, ok := r.dies[leaf]; ok {
			for i := k; i < len(want); i++ {
				want[i].Partial = append(want[i].Partial, leaf)
			}
		}
	}
	if _, ok := r.resume[node{}]; ok {
		want = want[r.from:]
	}

	// Stand the tree up from the root down, each node dialing its
	// parent's current address, through a proxy where its edge is cut.
	hosts := map[node]*host{}
	proxies := map[node]*chaosProxy{}
	parentOf := func(n node) (*host, int) {
		return hosts[node{n.tier - 1, n.idx / r.tp[n.tier-1]}], n.idx % r.tp[n.tier-1]
	}
	dialer := func(n node) func() (net.Conn, error) {
		parent, _ := parentOf(n)
		p := &chaosProxy{target: parent.dial, cuts: r.cuts[n]}
		if hole, ok := r.holes[n]; ok {
			p.cuts, p.swallow = []int{hole}, true
		} else if p.cuts == nil {
			return parent.dial
		}
		p.start(t)
		proxies[n] = p
		return p.dial
	}
	for tier, fanIn := range r.tp {
		for idx := range r.tp[:tier].leaves() {
			n := node{tier, idx}
			cc := r.tiers[tier]
			cc.Agents = fanIn
			if file, ok := r.resume[n]; ok {
				cc.CheckpointPath, cc.Resume = fixture(t, file), true
			} else if r.crash != nil && *r.crash == n && !r.fresh {
				cc.CheckpointPath = filepath.Join(t.TempDir(), "node.ckpt")
			}
			h := &host{cfg: cfg, cc: cc}
			if tier > 0 {
				_, id := parentOf(n)
				h.rc = &wire.RelayConfig{AgentID: id, Dialer: dialer(n), Retry: fastRetry()}
			} else if r.crash != nil && *r.crash == n {
				h.failAt = r.at
			}
			h.start(t)
			hosts[n] = h
		}
	}

	var atBarrier chan struct{}
	resume := make(chan struct{})
	release := sync.OnceFunc(func() { close(resume) })
	defer release() // a failed row must not strand its leaves at the barrier
	if r.crash != nil {
		atBarrier = make(chan struct{}, leaves)
	}
	agents := make([]*wire.Agent, leaves) // set at the barrier
	var wg sync.WaitGroup
	for idx, part := range parts {
		n := node{len(r.tp), idx}
		_, id := parentOf(n)
		from, to := r.window(idx, len(trace))
		from = max(from, r.from)
		l := leaf{id: id, shards: 1, part: part[:to], from: from, dial: dialer(n)}
		if idx == 0 && r.shards0 > 0 {
			l.shards = r.shards0
		}
		_, l.mortal = r.dies[idx]
		if atBarrier != nil {
			l.holdAt = r.at
			l.hold = func(a *wire.Agent) {
				agents[idx] = a
				atBarrier <- struct{}{}
				<-resume
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(t, cfg)
		}()
	}
	if r.crash != nil {
		for range leaves {
			select {
			case <-atBarrier:
			case <-time.After(10 * time.Second):
				t.Fatal("the leaves never all reached the barrier")
			}
		}
		h := hosts[*r.crash]
		wantErr := errCrash
		if r.crash.tier > 0 {
			// Kill the relay once it has closed the intervals and its
			// acks, whatever they settle, have reached its leaves.
			eventually(t, "the relay closes the intervals before the crash", func() bool {
				return h.metrics(t).LastClosed >= bnd(r.at-1)
			})
			for idx, a := range agents {
				if parent, id := parentOf(node{len(r.tp), idx}); parent == h {
					eventually(t, "the relay's acks reach its leaves", func() bool {
						return a.Acked() >= h.metrics(t).Agents[id].LastAcked
					})
				}
			}
			h.cancel()
			wantErr = context.Canceled
		}
		if err := h.end(t); !errors.Is(err, wantErr) {
			t.Fatalf("crashed node exited with %v, want %v", err, wantErr)
		}
		h.cc.Resume = !r.fresh
		h.start(t)
	}
	release()

	// Ends cascade tier by tier: leaves Bye their relays, whose Serves
	// return after Byeing their parents, up to the root. Once the row
	// has failed, a session may never end on its own: cancel it.
	wg.Wait()
	for tier := len(r.tp) - 1; tier >= 0; tier-- {
		for idx := range r.tp[:tier].leaves() {
			h := hosts[node{tier, idx}]
			if t.Failed() {
				h.cancel()
			}
			if err := h.end(t); err != nil && !t.Failed() {
				t.Errorf("node %v: %v", node{tier, idx}, err)
			}
		}
	}
	if t.Failed() {
		return
	}

	root := hosts[node{}]
	gridtest.Equal(t, root.got, want, leaves)
	if root.emitted != int64(len(root.got)) {
		t.Errorf("root metrics count %d reports emitted, want %d", root.emitted, len(root.got))
	}
	for n, p := range proxies {
		parent, id := parentOf(n)
		if p.accepted() < 2 {
			t.Errorf("node %v: proxy saw %d connections; the scripted cut never forced a redial", n, p.accepted())
		}
		if rc := parent.metrics(t).Agents[id].Reconnects; rc < 1 {
			t.Errorf("node %v: %d reconnects behind a cut edge, want >= 1", n, rc)
		}
	}
	if r.crash != nil && r.crash.tier > 0 {
		parent, id := parentOf(*r.crash)
		if rc := parent.metrics(t).Agents[id].Reconnects; rc < 1 {
			t.Errorf("restarted relay %v: %d reconnects at its parent, want >= 1", *r.crash, rc)
		}
	}
	for tier := 1; tier <= len(r.tp); tier++ {
		for idx := range r.tp[:tier].leaves() {
			n := node{tier, idx}
			parent, id := parentOf(n)
			want := metrics.StatusBye
			if _, dead := r.dies[idx]; dead && tier == len(r.tp) {
				want = metrics.StatusDead
			}
			if got := parent.metrics(t).Agents[id].Status; got != want {
				t.Errorf("node %v ended %q, want %q", n, got, want)
			}
		}
	}
}

// window returns the intervals [from, to) leaf ships over the row's
// session, the recorded one included.
func (r row) window(leaf, intervals int) (from, to int) {
	from, to = 0, intervals
	if w, ok := r.ships[leaf]; ok {
		from, to = w[0], w[1]
	}
	if k, ok := r.dies[leaf]; ok {
		to = k
	}
	return from, to
}

// host is a collector-side node, the root or a relay, serving on a
// loopback listener. Its children dial the address it listens on now,
// which moves when it restarts.
type host struct {
	cfg core.Config
	cc  wire.CollectorConfig
	rc  *wire.RelayConfig // nil at the root
	// failAt makes the root's emit fail, once, on its failAt-th report.
	failAt int

	addr   atomic.Value // string
	coll   *wire.Collector
	rel    *wire.Relay
	cancel context.CancelFunc
	done   chan error

	// got holds the root's reports and emitted its reports_emitted,
	// summed over its runs.
	got     []*core.Report
	emitted int64
}

// serve starts a root collector for cc on a loopback listener, and
// cancels and ends it with the test unless the test ended it first.
func serve(t *testing.T, cfg core.Config, cc wire.CollectorConfig) *host {
	t.Helper()
	h := &host{cfg: cfg, cc: cc}
	h.start(t)
	t.Cleanup(func() {
		h.cancel()
		h.end(t)
	})
	return h
}

// start builds the node from its configuration and serves it on a new
// listener.
func (h *host) start(t *testing.T) {
	t.Helper()
	ln := listen(t)
	h.addr.Store(ln.Addr().String())
	var ctx context.Context
	ctx, h.cancel = context.WithCancel(context.Background())
	h.done = make(chan error, 1)
	var err error
	if h.rc == nil {
		if h.coll, err = wire.NewCollector(h.cfg, h.cc); err == nil {
			go func() { h.done <- h.coll.Serve(ctx, ln, h.emit) }()
		}
	} else {
		rc := *h.rc
		rc.Collector = h.cc
		if h.rel, err = wire.NewRelay(h.cfg, rc); err == nil {
			go func() { h.done <- h.rel.Serve(ctx, ln) }()
		}
	}
	if err != nil {
		ln.Close()
		h.cancel()
		t.Fatal(err)
	}
}

func (h *host) emit(rep *core.Report) error {
	if len(h.got)+1 == h.failAt {
		h.failAt = 0
		return errCrash
	}
	h.got = append(h.got, rep)
	return nil
}

// dial connects to the node's current listener.
func (h *host) dial() (net.Conn, error) { return net.Dial("tcp", h.addr.Load().(string)) }

// end waits for the node's Serve to return, counts the reports it
// emitted and releases it; it returns Serve's error, and nil once the
// node has ended. A Serve still running after twenty seconds is
// cancelled and left unreleased, so the row fails instead of hanging.
func (h *host) end(t *testing.T) error {
	t.Helper()
	if h.done == nil {
		return nil
	}
	var err error
	select {
	case err = <-h.done:
		h.done = nil
	case <-time.After(20 * time.Second):
		h.cancel()
		return errors.New("Serve did not return within 20s")
	}
	h.cancel()
	h.emitted += h.metrics(t).ReportsEmitted
	if h.rel != nil {
		h.rel.Close()
	} else {
		h.coll.Close()
	}
	return err
}

// sessionMetrics decodes the fields of a node's metrics JSON the
// harness checks.
type sessionMetrics struct {
	LastClosed     int64 `json:"last_closed_boundary"`
	ReportsEmitted int64 `json:"reports_emitted"`
	Agents         []struct {
		Status     string `json:"status"`
		LastAcked  int64  `json:"last_acked_boundary"`
		QueueDepth int64  `json:"queue_depth"`
		Reconnects int64  `json:"reconnects"`
	} `json:"agents"`
}

func (h *host) metrics(t *testing.T) sessionMetrics {
	t.Helper()
	var m *metrics.Session
	if h.rel != nil {
		m = h.rel.Metrics()
	} else {
		m = h.coll.Metrics()
	}
	var sm sessionMetrics
	if err := json.Unmarshal([]byte(m.String()), &sm); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	return sm
}

// leaf is one agent of a tree: a local pipeline of shards partitions
// behind a shipping engine that ships every interval of part from from
// on, submitted in interval order 512 records at a time, the way a
// collector socket replays its slice of the traffic.
type leaf struct {
	id, shards int
	part       [][]flow.Record
	from       int
	dial       func() (net.Conn, error)
	// mortal makes the leaf's machine die once its parent has acked its
	// last interval: the transport closes with no Bye, and it never
	// redials. (Dying any sooner would race that frame's delivery.)
	mortal bool
	// hold, when set, runs once interval holdAt is submitted: the leaf
	// has shipped every interval before it.
	holdAt int
	hold   func(*wire.Agent)
}

func (l leaf) run(t *testing.T, cfg core.Config) {
	opts := wire.AgentOptions{Retry: fastRetry(), Dialer: l.dial}
	var conn net.Conn
	if l.mortal {
		opts.Retry = wire.RetryConfig{MaxAttempts: -1}
		opts.Dialer = func() (c net.Conn, err error) {
			conn, err = l.dial()
			return conn, err
		}
	}
	agent, err := wire.DialAgent("", l.id, cfg, opts)
	if err != nil {
		t.Errorf("agent %d: dial: %v", l.id, err)
		return
	}
	p, err := core.NewPartitioned(cfg, l.shards)
	if err != nil {
		t.Errorf("agent %d: %v", l.id, err)
		agent.Close()
		return
	}
	eng, err := engine.NewShipping(engine.Config{IntervalLen: gridtest.IntervalLen}, p, agent.ShipOpenInterval)
	if err != nil {
		t.Errorf("agent %d: %v", l.id, err)
		p.Close()
		agent.Close()
		return
	}
	// Drain the local stub reports; detection happens at the root.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range eng.Reports() {
		}
	}()
	for i := l.from; i < len(l.part); i++ {
		recs := l.part[i]
		for j := 0; j < len(recs); j += 512 {
			if _, err := eng.SubmitBatch(recs[j:min(j+512, len(recs))]); err != nil {
				t.Errorf("agent %d: submit: %v", l.id, err)
			}
		}
		if l.hold != nil && i == l.holdAt {
			l.hold(agent)
		}
	}
	if err := eng.Close(); err != nil {
		t.Errorf("agent %d: engine close: %v", l.id, err)
	}
	<-drained
	if l.mortal {
		eventually(t, "the dying leaf's last interval is acked", func() bool {
			return agent.Acked() >= bnd(len(l.part)-1)
		})
		conn.Close()
		return
	}
	// Bye must trail the final flushed interval, so close the agent
	// after the engine.
	if err := agent.Close(); err != nil {
		t.Errorf("agent %d: close: %v", l.id, err)
	}
}

// eventually polls cond every millisecond until it holds, failing t if
// it does not within ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%s: not within 10s", what)
			return
		}
	}
}

// listen opens a loopback listener.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// chaosProxy forwards a child's connections to its parent and cuts them
// at scripted points: the k-th accepted connection is killed after
// forwarding cuts[k] child→parent frames (the Hello counts), so a row
// can break the transport at exact protocol positions — mid handshake,
// between interval frames — while both ends see only an ordinary broken
// TCP connection. With swallow set, the connection stays up instead and
// its further frames vanish. Connections beyond the script pass through
// untouched.
type chaosProxy struct {
	ln      net.Listener
	target  func() (net.Conn, error)
	cuts    []int
	swallow bool

	mu    sync.Mutex
	conns int
}

// start listens and serves until t's test ends.
func (p *chaosProxy) start(t *testing.T) {
	p.ln = listen(t)
	t.Cleanup(func() { p.ln.Close() })
	go p.accept()
}

// dial connects to the proxy, as the child behind it does.
func (p *chaosProxy) dial() (net.Conn, error) { return net.Dial("tcp", p.ln.Addr().String()) }

// accepted returns how many connections the proxy has seen.
func (p *chaosProxy) accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns
}

func (p *chaosProxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		idx := p.conns
		p.conns++
		p.mu.Unlock()
		go p.pipe(conn, idx)
	}
}

// pipe relays one connection, frame-aware in the child→parent direction
// so the cut lands on a frame boundary (a clean truncation; torn frames
// are the codec tests' territory).
func (p *chaosProxy) pipe(client net.Conn, idx int) {
	up, err := p.target()
	if err != nil {
		client.Close()
		return
	}
	defer client.Close()
	defer up.Close()
	go func() {
		// Parent→child: HelloOK and acks flow untouched. The wrappers
		// keep the copy a plain one: a TCP-to-TCP io.Copy splices
		// through pooled pipes whose descriptors outlive the row.
		io.Copy(struct{ io.Writer }{client}, struct{ io.Reader }{up})
		client.Close()
	}()
	limit := -1
	if idx < len(p.cuts) {
		limit = p.cuts[idx]
	}
	var hdr [5]byte
	for forwarded := 0; limit < 0 || forwarded < limit; forwarded++ {
		if _, err := io.ReadFull(client, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if n == 0 || n > 1<<30 {
			return
		}
		payload := make([]byte, n-1)
		if _, err := io.ReadFull(client, payload); err != nil {
			return
		}
		if _, err := up.Write(hdr[:]); err != nil {
			return
		}
		if _, err := up.Write(payload); err != nil {
			return
		}
	}
	if p.swallow {
		io.Copy(io.Discard, client)
	}
}

// TestGrid is the determinism contract across the wire in one table: the
// grid trace, hash-partitioned over the leaves of a collector tree as an
// in-process run partitions it, must come out of the root as exactly the
// reports of gridtest.Reference over the same records, with no interval
// flagged Partial and no goroutine or descriptor left behind. The rows
// are the topologies {2}, {4}, {2, 2} and {1, 2, 2} × leaf 0 on {1, 2}
// local partitions; and {2} and {2, 2} with leaf 0 silent for the first
// two intervals (it seeds its grid late) and the last leaf for the last
// two (it Byes early), against the reference over the records they
// ship: the root lines every interval up by absolute boundary.
func TestGrid(t *testing.T) {
	for _, tp := range []topology{{2}, {4}, {2, 2}, {1, 2, 2}} {
		for _, shards0 := range []int{1, 2} {
			t.Run(fmt.Sprintf("topology=%v/leaf0-shards=%d", tp, shards0), row{tp: tp, shards0: shards0}.run)
		}
	}
	for _, tp := range []topology{{2}, {2, 2}} {
		ships := map[int][2]int{0: {2, 10}, tp.leaves() - 1: {0, 8}}
		t.Run(fmt.Sprintf("topology=%v/late-and-early", tp), row{tp: tp, shards0: 2, ships: ships}.run)
	}
}

// TestFaultGrid holds the failure model (docs/ARCHITECTURE.md) to the
// same checks as TestGrid, one scripted fault per row:
//   - reconnect-replay: leaf 0's connection is cut right after the
//     Hello, and twice more between interval frames; it redials and
//     replays.
//   - close-without-dead-leaf, hold-timeout: a leaf dies mid-session,
//     and the root closes the rest of the trace Partial at once, or
//     once its hold timer fires, and still ends on its own.
//   - root-restart: the checkpointed root crashes between absorbing an
//     interval and checkpointing it, and a new root resumes from the
//     checkpoint while the agents replay what it lost.
//   - relay-tier-cuts: the leaf→relay and relay→root edges of a 2×2
//     tree are each cut mid-stream.
//   - relay-restart, three-tier-mid-restart: a checkpointed relay, the
//     middle one of three tiers in the second row, is killed and
//     restarted; it re-offers its held frames and the ack-after-upstream
//     rule holds through the extra tier.
//   - relay-blackhole-fresh-restart: a relay without a checkpoint ships
//     into a blackhole after its first two frames, is killed and
//     restarts empty. Only the ack-after-upstream rule leaves its
//     children holding the swallowed intervals to replay.
//   - relay-leaf-death: a leaf dies behind a CloseWithout relay, and
//     Partial names its global leaf ID, not the relay's.
//   - fixture: a root and a relay resume from the recorded version-3
//     checkpoints (see TestParentCheckpointsReencode) under the trace and
//     configuration they were written with — the collector file after
//     three closed intervals, the relay file holding its first two merged
//     frames unacked. The alarm falls after both cuts, so the restored
//     state decides it.
func TestFaultGrid(t *testing.T) {
	hold500 := map[int]wire.CollectorConfig{0: {HoldTimeout: 500 * time.Millisecond}}
	closeAt := func(tier int) map[int]wire.CollectorConfig {
		return map[int]wire.CollectorConfig{tier: {Policy: wire.CloseWithout}}
	}
	fixtureCfg := &core.Config{Detector: detector.Config{Bins: 32, TrainIntervals: 2, Seed: 3}}
	for _, tc := range []struct {
		name string
		r    row
	}{
		{"reconnect-replay", row{tp: topology{2}, trace: gridtest.Trace(10, 2000, 7),
			cuts: map[node][]int{{1, 0}: {1, 3, 6}}}},
		{"close-without-dead-leaf", row{tp: topology{2}, tiers: closeAt(0), dies: map[int]int{1: 4}}},
		{"hold-timeout", row{tp: topology{2}, tiers: hold500, dies: map[int]int{1: 2}}},
		{"root-restart", row{tp: topology{2}, crash: &node{0, 0}, at: 4}},
		{"relay-tier-cuts", row{tp: topology{2, 2}, trace: gridtest.Trace(10, 2000, 7),
			cuts: map[node][]int{{2, 0}: {1, 3}, {1, 1}: {2, 5}}}},
		{"relay-restart", row{tp: topology{1, 2}, crash: &node{1, 0}, at: 4}},
		{"relay-blackhole-fresh-restart", row{tp: topology{1, 2}, holes: map[node]int{{1, 0}: 3},
			crash: &node{1, 0}, at: 4, fresh: true}},
		{"relay-leaf-death", row{tp: topology{2, 2}, tiers: closeAt(1), dies: map[int]int{3: 4}}},
		{"three-tier-mid-restart", row{tp: topology{1, 1, 2}, crash: &node{2, 0}, at: 4}},
		{"fixture/collector", row{tp: topology{2}, cfg: fixtureCfg, trace: gridtest.Trace(6, 120, 4),
			resume: map[node]string{{0, 0}: "v3_collector.ckpt"}, from: 3}},
		{"fixture/relay", row{tp: topology{1, 2}, cfg: fixtureCfg, trace: gridtest.Trace(6, 120, 4),
			resume: map[node]string{{1, 0}: "v3_relay.ckpt"}, from: 2}},
	} {
		t.Run(tc.name, tc.r.run)
	}
}
