package faultinject

import (
	"sync"
	"time"
)

// Clock is the time source of the service scheduler's retry backoff and
// deadlines and of the dispatch coordinator's lease and liveness expiry.
// Production runs on RealClock; chaos suites substitute ManualClock, so
// one injected fake drives both and timing behavior is tested instantly
// and without flaking on scheduler jitter. The clock never feeds into a
// report — only into when work runs.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// RealClock is the production Clock: the time package's.
type RealClock struct{}

func (RealClock) Now() time.Time                         { return time.Now() }
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// ManualClock is a deterministic Clock for retry/backoff and deadline
// tests: time only moves when the test calls Advance, so a chaos suite
// exercising exponential backoff or a per-job deadline runs instantly
// and never flakes on scheduler jitter.
type ManualClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []waiter
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewManualClock returns a clock frozen at the given instant.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now returns the clock's current instant.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that receives the clock's time once Advance
// has moved it at least d past the current instant. A non-positive d
// fires on the next Advance call (never synchronously), keeping wake
// order deterministic.
func (c *ManualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	c.waiters = append(c.waiters, waiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward and fires every waiter whose deadline
// has been reached, in registration order.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	var due []chan time.Time
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(now) {
			due = append(due, w.ch)
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
	c.mu.Unlock()
	for _, ch := range due {
		ch <- now
	}
}

// Waiters returns how many After channels have not fired yet — the
// synchronization handle tests use to know a backoff sleep was entered
// before advancing the clock.
func (c *ManualClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
