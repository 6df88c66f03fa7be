package wire

import (
	"slices"
	"testing"
	"time"

	"anomalyx/internal/core"
)

// TestAgentJitterPerID: each agent seeds its redial jitter with its own
// ID, so a fleet that loses its collector at once does not redial in
// lockstep, while one agent's delays stay the same from run to run.
func TestAgentJitterPerID(t *testing.T) {
	delays := func(id int) []time.Duration {
		a := newAgent("", id, core.Config{}, AgentOptions{})
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = a.opts.Retry.backoff(i+1, a.rng)
		}
		return out
	}
	if d0, d1 := delays(0), delays(1); slices.Equal(d0, d1) {
		t.Errorf("agents 0 and 1 draw the same backoff sequence %v", d0)
	}
	if d1, again := delays(1), delays(1); !slices.Equal(d1, again) {
		t.Errorf("agent 1 drew %v, then %v", d1, again)
	}
}
