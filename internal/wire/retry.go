package wire

import (
	"math/rand"
	"time"
)

// RetryConfig parameterizes an agent's redial behavior after a lost
// collector connection: capped exponential backoff with seeded jitter.
// Determinism note: the jitter source is explicitly seeded (Seed), so a
// given configuration produces the same delay sequence on every run —
// retry timing never reads the wall clock or the global rand source,
// and it only spaces connection attempts; it cannot influence report
// bytes.
type RetryConfig struct {
	// MaxAttempts is the number of redials tried per disconnect before
	// the agent gives up with a permanent error. 0 takes the default
	// (8); negative disables reconnection entirely (one strike and the
	// stream is dead, the pre-v3 behavior).
	MaxAttempts int
	// BaseDelay is the delay before the second attempt (the first retry
	// fires immediately); it doubles per attempt up to MaxDelay.
	// 0 takes the default (100ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. 0 takes the default (10s).
	MaxDelay time.Duration
	// Seed seeds the jitter source. The zero seed is a valid seed (all
	// agents may share it; jitter decorrelates by attempt anyway).
	Seed int64
}

// withDefaults resolves the zero values.
func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 100 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 10 * time.Second
	}
	return c
}

// backoff returns the delay before redial attempt, for attempt >= 1
// (attempt 0 fires immediately): BaseDelay << (attempt-1), capped at
// MaxDelay, then jittered uniformly into [delay/2, delay] so a fleet of
// agents sharing a restart does not redial in lockstep.
func (c RetryConfig) backoff(attempt int, rng *rand.Rand) time.Duration {
	if attempt < 1 {
		return 0
	}
	d := c.BaseDelay
	for i := 1; i < attempt && d < c.MaxDelay; i++ {
		d *= 2
	}
	if d > c.MaxDelay {
		d = c.MaxDelay
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}
