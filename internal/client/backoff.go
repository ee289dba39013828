package client

import (
	"time"

	"repro/internal/types"
)

// Load-shed pacing. A replica over its admission cap answers waited-on
// requests with types.Overloaded{RetryAfterMicros} instead of silence
// (replica/admission.go). The client turns that hint into capped
// exponential backoff with jitter, so a shed request retries when capacity
// is plausibly back instead of hammering the replica in a tight loop or
// burning its whole deadline waiting for a reply that was never queued.
//
// All of this runs on the client's own goroutine: Overloaded replies reach
// the collector (collect.go) through the pending-request channel (Deliver
// routes them by ReqID), so the hint field and rng need no locking.

const (
	baseRetryDelay = 2 * time.Millisecond
	maxRetryDelay  = 250 * time.Millisecond
	// maxRetryHint caps how far a (possibly Byzantine) replica's
	// RetryAfter can push our pacing — the hint is advisory, and a forged
	// huge value must not park an honest client.
	maxRetryHint = 100 * time.Millisecond
)

// retryDelay computes the pause before retry number attempt (0-based):
// capped exponential growth, floored at the server's RetryAfter hint,
// with ±50% jitter so a cohort of shed clients does not re-arrive in
// lockstep at the same instant the replica drains.
func (c *Client) retryDelay(attempt int, hint time.Duration) time.Duration {
	d := baseRetryDelay
	for i := 0; i < attempt && d < maxRetryDelay; i++ {
		d *= 2
	}
	if d > maxRetryDelay {
		d = maxRetryDelay
	}
	if hint > maxRetryHint {
		hint = maxRetryHint
	}
	if hint > d {
		d = hint
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

// noteOverloaded records a shed reply: counts it and keeps the largest
// outstanding RetryAfter hint for the next pacing decision.
func (c *Client) noteOverloaded(m *types.Overloaded) {
	c.Stats.Overloads.Add(1)
	c.forceTrace(forcedOverload, "overload")
	if h := time.Duration(m.RetryAfterMicros) * time.Microsecond; h > c.retryHint {
		c.retryHint = h
	}
}

// takeRetryAfter returns and clears the recorded RetryAfter hint.
func (c *Client) takeRetryAfter() time.Duration {
	h := c.retryHint
	c.retryHint = 0
	return h
}
