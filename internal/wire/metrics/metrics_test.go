package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestSessionJSONShape pins the exported JSON: field names are an
// operational interface (dashboards scrape them), so a rename must be
// deliberate.
func TestSessionJSONShape(t *testing.T) {
	s := NewSession(2)
	s.SetLastClosed(1800000)
	s.IncEmitted()
	s.IncEmitted()

	a0 := s.Agent(0)
	a0.SetStatus(StatusLive)
	a0.SetLastAcked(1800000)
	a0.SetLag(0)
	a0.SetQueueDepth(3)
	a0.IncReconnects()
	a0.IncReconnects()
	a0.IncLateDrops()
	a0.IncDupDrops()

	var v struct {
		LastClosed int64 `json:"last_closed_boundary"`
		Emitted    int64 `json:"reports_emitted"`
		Agents     []struct {
			Status     string `json:"status"`
			LastAcked  int64  `json:"last_acked_boundary"`
			Lag        int64  `json:"lag_intervals"`
			QueueDepth int64  `json:"queue_depth"`
			Reconnects int64  `json:"reconnects"`
			LateDrops  int64  `json:"late_drops"`
			DupDrops   int64  `json:"dup_drops"`
		} `json:"agents"`
	}
	if err := json.Unmarshal([]byte(s.String()), &v); err != nil {
		t.Fatalf("session JSON does not parse: %v\n%s", err, s.String())
	}
	if v.LastClosed != 1800000 || v.Emitted != 2 || len(v.Agents) != 2 {
		t.Fatalf("session view = %+v", v)
	}
	got := v.Agents[0]
	if got.Status != StatusLive || got.LastAcked != 1800000 || got.Lag != 0 ||
		got.QueueDepth != 3 || got.Reconnects != 2 || got.LateDrops != 1 || got.DupDrops != 1 {
		t.Fatalf("agent 0 view = %+v", got)
	}
	// An untouched agent reads as pending with zero counters.
	if want := v.Agents[0]; reflect.DeepEqual(v.Agents[1], want) {
		t.Fatalf("agent views unexpectedly equal: %+v", want)
	}
	if v.Agents[1].Status != StatusPending {
		t.Fatalf("untouched agent status = %q, want %q", v.Agents[1].Status, StatusPending)
	}
}

// TestNilSafety pins the no-branching contract: every method no-ops on
// a nil Session or nil AgentMetrics, and out-of-range Agent lookups
// return nil rather than panicking.
func TestNilSafety(t *testing.T) {
	var s *Session
	s.SetLastClosed(1)
	s.IncEmitted()
	if got := s.String(); got != "null" {
		t.Fatalf("nil session String() = %q, want null", got)
	}

	real := NewSession(1)
	for _, a := range []*AgentMetrics{s.Agent(0), real.Agent(-1), real.Agent(1)} {
		if a != nil {
			t.Fatalf("out-of-range Agent lookup returned %v, want nil", a)
		}
		a.SetLastAcked(1)
		a.SetLag(1)
		a.SetQueueDepth(1)
		a.IncReconnects()
		a.IncLateDrops()
		a.IncDupDrops()
		a.SetStatus(StatusDead)
	}

	if NewSession(-1).String() == "" {
		t.Fatal("negative-size session did not render")
	}
}

// TestHandler pins the /debug/vars-compatible HTTP shape, served on
// every path except /metrics.
func TestHandler(t *testing.T) {
	s := NewSession(1)
	s.Agent(0).SetStatus(StatusBye)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var v struct {
		Collector struct {
			Agents []struct {
				Status string `json:"status"`
			} `json:"agents"`
		} `json:"collector"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("handler body does not parse: %v\n%s", err, rec.Body.String())
	}
	if len(v.Collector.Agents) != 1 || v.Collector.Agents[0].Status != StatusBye {
		t.Fatalf("handler view = %+v", v)
	}
}

// promSampleRe matches one Prometheus text-format sample line: a legal
// metric name, an optional label set of quoted values, and an integer
// value (every counter here is integral).
var promSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (-?\d+)$`)

// promHeaderRe matches a # HELP or # TYPE family header.
var promHeaderRe = regexp.MustCompile(
	`^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge))$`)

// TestPrometheusExposition scrapes /metrics as a Prometheus server
// would: every line must be a well-formed header or sample, every
// sample's family must have been declared by a preceding # TYPE,
// counters must carry the _total suffix, and the sampled values must
// match what was recorded — including the one-hot status vector.
func TestPrometheusExposition(t *testing.T) {
	s := NewSession(2)
	s.SetLastClosed(1800000)
	s.IncEmitted()
	s.IncFramesRelayed()
	s.SetFramesHeld(3)
	a0 := s.Agent(0)
	a0.SetStatus(StatusLive)
	a0.SetLastAcked(1800000)
	a0.SetLag(1)
	a0.SetQueueDepth(4)
	a0.IncReconnects()
	a0.IncLateDrops()
	a0.IncDupDrops()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.HasSuffix(body, "\n") {
		t.Fatal("exposition does not end in a newline")
	}

	typed := map[string]string{} // family -> counter|gauge
	samples := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			m := promHeaderRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed header line %q", line)
			}
			fields := strings.Fields(m[1])
			if fields[0] == "TYPE" {
				typed[fields[1]] = fields[2]
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		name := m[1]
		typ, ok := typed[name]
		if !ok {
			t.Fatalf("sample %q precedes its # TYPE declaration", line)
		}
		if strings.HasSuffix(name, "_total") != (typ == "counter") {
			t.Fatalf("metric %q: _total suffix and type %q disagree", name, typ)
		}
		v, err := strconv.ParseInt(m[4], 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[name+m[2]] = v
	}

	for key, want := range map[string]int64{
		"anomalyx_last_closed_boundary":                     1800000,
		"anomalyx_reports_emitted_total":                    1,
		"anomalyx_frames_relayed_total":                     1,
		"anomalyx_frames_held":                              3,
		`anomalyx_agent_last_acked_boundary{agent="0"}`:     1800000,
		`anomalyx_agent_lag_intervals{agent="0"}`:           1,
		`anomalyx_agent_queue_depth{agent="0"}`:             4,
		`anomalyx_agent_reconnects_total{agent="0"}`:        1,
		`anomalyx_agent_late_drops_total{agent="0"}`:        1,
		`anomalyx_agent_dup_drops_total{agent="0"}`:         1,
		`anomalyx_agent_reconnects_total{agent="1"}`:        0,
		`anomalyx_agent_status{agent="0",status="live"}`:    1,
		`anomalyx_agent_status{agent="0",status="dead"}`:    0,
		`anomalyx_agent_status{agent="1",status="pending"}`: 1,
	} {
		got, ok := samples[key]
		if !ok {
			t.Errorf("exposition is missing %s", key)
		} else if got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	// One-hot invariant: each agent's status vector sums to exactly 1.
	for agent := 0; agent < 2; agent++ {
		sum := int64(0)
		for _, st := range statuses {
			sum += samples[`anomalyx_agent_status{agent="`+strconv.Itoa(agent)+`",status="`+st+`"}`]
		}
		if sum != 1 {
			t.Errorf("agent %d status vector sums to %d, want 1", agent, sum)
		}
	}
	if s = nil; s.PrometheusText() != "" {
		t.Error("nil session exposition not empty")
	}
}
