// Package metrics is the collector's operational-visibility surface:
// per-agent ack/lag/queue/reconnect counters updated by the wire
// collector and exported over HTTP — in expvar JSON format on every
// path but /metrics, and in Prometheus text exposition format on
// /metrics.
//
// Determinism note: metrics are observational only. The collector
// writes them with atomic stores as the session progresses and nothing
// ever reads them back into the merge path, so the counters cannot
// influence report bytes; only their observed values depend on timing.
package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
)

// Agent statuses exported per agent, mirroring the collector's
// connection-state machine.
const (
	// StatusPending marks an agent that has never connected.
	StatusPending = "pending"
	// StatusLive marks a connected agent.
	StatusLive = "live"
	// StatusDown marks a disconnected agent the collector still waits
	// for: its hold has not run out, or the collector holds forever.
	StatusDown = "down"
	// StatusDead marks an agent the collector no longer waits for since
	// a hold ran out on it, connected or not; intervals close without it,
	// flagged Partial, until it sends a frame or reconnects.
	StatusDead = "dead"
	// StatusBye marks an agent that ended its stream cleanly.
	StatusBye = "bye"
)

// AgentMetrics holds one agent's counters. All methods are safe on a
// nil receiver (they no-op), so collector code can update
// unconditionally whether or not a session is being observed.
type AgentMetrics struct {
	lastAcked  atomic.Int64
	lag        atomic.Int64
	queueDepth atomic.Int64
	reconnects atomic.Int64
	lateDrops  atomic.Int64
	dupDrops   atomic.Int64
	status     atomic.Value // string
}

// SetLastAcked records the boundary last acknowledged to the agent.
func (a *AgentMetrics) SetLastAcked(boundary int64) {
	if a != nil {
		a.lastAcked.Store(boundary)
	}
}

// SetLag records how many closed intervals the agent is behind the
// session (0 when it contributed to the latest closed interval).
func (a *AgentMetrics) SetLag(intervals int64) {
	if a != nil {
		a.lag.Store(intervals)
	}
}

// SetQueueDepth records the collector-side pending-frame queue depth —
// frames received from the agent but not yet absorbed, the mirror of
// the agent's replay buffer.
func (a *AgentMetrics) SetQueueDepth(depth int64) {
	if a != nil {
		a.queueDepth.Store(depth)
	}
}

// IncReconnects counts a handshake beyond the agent's first.
func (a *AgentMetrics) IncReconnects() {
	if a != nil {
		a.reconnects.Add(1)
	}
}

// IncLateDrops counts a frame dropped because its interval was already
// closed without this agent — the data-loss path behind a Partial flag.
func (a *AgentMetrics) IncLateDrops() {
	if a != nil {
		a.lateDrops.Add(1)
	}
}

// IncDupDrops counts a frame dropped as an already-held duplicate (a
// benign replay overlap after a reconnect).
func (a *AgentMetrics) IncDupDrops() {
	if a != nil {
		a.dupDrops.Add(1)
	}
}

// SetStatus records the agent's connection status (one of the Status*
// constants).
func (a *AgentMetrics) SetStatus(status string) {
	if a != nil {
		a.status.Store(status)
	}
}

// agentView is the JSON shape of one agent's counters.
type agentView struct {
	Status     string `json:"status"`
	LastAcked  int64  `json:"last_acked_boundary"`
	Lag        int64  `json:"lag_intervals"`
	QueueDepth int64  `json:"queue_depth"`
	Reconnects int64  `json:"reconnects"`
	LateDrops  int64  `json:"late_drops"`
	DupDrops   int64  `json:"dup_drops"`
}

func (a *AgentMetrics) view() agentView {
	v := agentView{
		Status:     StatusPending,
		LastAcked:  a.lastAcked.Load(),
		Lag:        a.lag.Load(),
		QueueDepth: a.queueDepth.Load(),
		Reconnects: a.reconnects.Load(),
		LateDrops:  a.lateDrops.Load(),
		DupDrops:   a.dupDrops.Load(),
	}
	if s, ok := a.status.Load().(string); ok {
		v.Status = s
	}
	return v
}

// Session aggregates one collector session's metrics: session-wide
// progress plus one AgentMetrics per agent ID. It implements
// expvar.Var, so callers may expvar.Publish it under a name of their
// choosing; Handler serves the same JSON without touching expvar's
// process-global registry (which a multi-session test process must not
// share).
type Session struct {
	lastClosed    atomic.Int64
	emitted       atomic.Int64
	framesRelayed atomic.Int64
	framesHeld    atomic.Int64
	agents        []AgentMetrics
}

// NewSession builds a session for the given number of agents.
func NewSession(agents int) *Session {
	if agents < 0 {
		agents = 0
	}
	return &Session{agents: make([]AgentMetrics, agents)}
}

// Agent returns the metrics slot for an agent ID, or nil when the
// receiver is nil or the ID is out of range — composing with the
// nil-safe AgentMetrics methods, so call sites never branch.
func (s *Session) Agent(id int) *AgentMetrics {
	if s == nil || id < 0 || id >= len(s.agents) {
		return nil
	}
	return &s.agents[id]
}

// SetLastClosed records the boundary of the most recently closed
// interval.
func (s *Session) SetLastClosed(boundary int64) {
	if s != nil {
		s.lastClosed.Store(boundary)
	}
}

// IncEmitted counts an emitted report.
func (s *Session) IncEmitted() {
	if s != nil {
		s.emitted.Add(1)
	}
}

// IncFramesRelayed counts a merged interval frame a relay actually
// shipped upstream (boundaries a resumed relay re-closed but the parent
// already held are not counted).
func (s *Session) IncFramesRelayed() {
	if s != nil {
		s.framesRelayed.Add(1)
	}
}

// SetFramesHeld records how many shipped-but-unacked frames the relay's
// upstream face currently holds in its replay buffer — the boundaries a
// relay crash would have to recover from its checkpoint or its
// children's replays.
func (s *Session) SetFramesHeld(n int64) {
	if s != nil {
		s.framesHeld.Store(n)
	}
}

// sessionView is the JSON shape of the session.
type sessionView struct {
	LastClosedBoundary int64       `json:"last_closed_boundary"`
	ReportsEmitted     int64       `json:"reports_emitted"`
	FramesRelayed      int64       `json:"frames_relayed"`
	FramesHeld         int64       `json:"frames_held"`
	Agents             []agentView `json:"agents"`
}

func (s *Session) view() sessionView {
	v := sessionView{
		LastClosedBoundary: s.lastClosed.Load(),
		ReportsEmitted:     s.emitted.Load(),
		FramesRelayed:      s.framesRelayed.Load(),
		FramesHeld:         s.framesHeld.Load(),
		Agents:             make([]agentView, len(s.agents)),
	}
	for i := range s.agents {
		v.Agents[i] = s.agents[i].view()
	}
	return v
}

// String renders the session as JSON, satisfying expvar.Var.
func (s *Session) String() string {
	if s == nil {
		return "null"
	}
	b, err := json.Marshal(s.view())
	if err != nil {
		return "null"
	}
	return string(b)
}

// statuses is the fixed status vocabulary, in exposition order, for
// the one-hot anomalyx_agent_status metric.
var statuses = []string{StatusPending, StatusLive, StatusDown, StatusDead, StatusBye}

// promFamily writes one metric family header pair.
func promFamily(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// PrometheusText renders the session in Prometheus text exposition
// format (version 0.0.4): the same counters the JSON view carries, as
// session-level samples plus per-agent samples labeled agent="<id>".
// Connection status is exposed one-hot over the fixed status
// vocabulary. Agents appear in ID order, so the output for a settled
// session is reproducible.
func (s *Session) PrometheusText() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	v := s.view()
	promFamily(&b, "anomalyx_last_closed_boundary", "Boundary (ms) of the most recently closed interval.", "gauge")
	fmt.Fprintf(&b, "anomalyx_last_closed_boundary %d\n", v.LastClosedBoundary)
	promFamily(&b, "anomalyx_reports_emitted_total", "Reports emitted by this session.", "counter")
	fmt.Fprintf(&b, "anomalyx_reports_emitted_total %d\n", v.ReportsEmitted)
	promFamily(&b, "anomalyx_frames_relayed_total", "Merged interval frames a relay shipped upstream.", "counter")
	fmt.Fprintf(&b, "anomalyx_frames_relayed_total %d\n", v.FramesRelayed)
	promFamily(&b, "anomalyx_frames_held", "Shipped-but-unacked frames held for upstream replay.", "gauge")
	fmt.Fprintf(&b, "anomalyx_frames_held %d\n", v.FramesHeld)

	promFamily(&b, "anomalyx_agent_last_acked_boundary", "Boundary (ms) last acknowledged to the agent.", "gauge")
	for i := range v.Agents {
		fmt.Fprintf(&b, "anomalyx_agent_last_acked_boundary{agent=%q} %d\n", fmt.Sprint(i), v.Agents[i].LastAcked)
	}
	promFamily(&b, "anomalyx_agent_lag_intervals", "Closed intervals the agent is behind the session.", "gauge")
	for i := range v.Agents {
		fmt.Fprintf(&b, "anomalyx_agent_lag_intervals{agent=%q} %d\n", fmt.Sprint(i), v.Agents[i].Lag)
	}
	promFamily(&b, "anomalyx_agent_queue_depth", "Frames received from the agent but not yet absorbed.", "gauge")
	for i := range v.Agents {
		fmt.Fprintf(&b, "anomalyx_agent_queue_depth{agent=%q} %d\n", fmt.Sprint(i), v.Agents[i].QueueDepth)
	}
	promFamily(&b, "anomalyx_agent_reconnects_total", "Handshakes beyond the agent's first.", "counter")
	for i := range v.Agents {
		fmt.Fprintf(&b, "anomalyx_agent_reconnects_total{agent=%q} %d\n", fmt.Sprint(i), v.Agents[i].Reconnects)
	}
	promFamily(&b, "anomalyx_agent_late_drops_total", "Frames dropped because their interval closed without this agent.", "counter")
	for i := range v.Agents {
		fmt.Fprintf(&b, "anomalyx_agent_late_drops_total{agent=%q} %d\n", fmt.Sprint(i), v.Agents[i].LateDrops)
	}
	promFamily(&b, "anomalyx_agent_dup_drops_total", "Frames dropped as already-held duplicates after a reconnect.", "counter")
	for i := range v.Agents {
		fmt.Fprintf(&b, "anomalyx_agent_dup_drops_total{agent=%q} %d\n", fmt.Sprint(i), v.Agents[i].DupDrops)
	}
	promFamily(&b, "anomalyx_agent_status", "Agent connection status, one-hot over the status vocabulary.", "gauge")
	for i := range v.Agents {
		for _, st := range statuses {
			hot := 0
			if v.Agents[i].Status == st {
				hot = 1
			}
			fmt.Fprintf(&b, "anomalyx_agent_status{agent=%q,status=%q} %d\n", fmt.Sprint(i), st, hot)
		}
	}
	return b.String()
}

// Handler returns an HTTP handler serving the session both ways:
// Prometheus text exposition on /metrics, and expvar's /debug/vars
// shape ({"collector": {...}}) on every other path — so one listener
// serves dashboards scraping either format.
func (s *Session) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(s.PrometheusText()))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write([]byte("{\n\"collector\": " + s.String() + "\n}\n"))
	})
	return mux
}
