// Package clock is the one time source the whole stack shares. Every layer
// that makes a time decision — cache TTLs, breaker windows, retry backoff,
// refresh due times, span timestamps, SLO windows, the simulated cluster —
// reads an injected Clock, so tests, drills and benchmarks run the entire
// dashboard deterministically on one Sim, while live servers use Real.
//
// Loop tickers and SSE heartbeats deliberately stay on the wall clock: they
// pace real goroutines and keep real sockets open, whatever the data clock.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time and pauses for a duration on the same
// timeline. Retry backoff sleeps on it, so on a Sim a backoff advances
// simulated time instead of blocking.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// Real is the system wall clock.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Sim is a manually advanced Clock. The zero value is not usable; use
// NewSim. Sim is safe for concurrent use.
type Sim struct {
	mu  sync.RWMutex
	now time.Time
}

// NewSim returns a Sim starting at the given instant.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (c *Sim) Now() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
// Negative durations are ignored: simulated time never goes backwards.
func (c *Sim) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// Sleep advances the simulated clock by d, so retry backoff and injected
// latency consume simulated rather than wall-clock time.
func (c *Sim) Sleep(d time.Duration) { c.Advance(d) }

// Set jumps the clock to t if t is not before the current time.
func (c *Sim) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}
