package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Fill admission bounds how many upstream fills one data source runs
// concurrently. The server cache's singleflight already collapses a stampede
// onto one key, but per-user keys (recent_jobs:<user>) and per-group keys
// (myjobs:<account set>:<range class>) only partly do: a login rush of N
// cold-cache users is up to N distinct keys, and every one of them starts
// its own upstream call. The gate caps that cold-fill
// concurrency: a fill beyond the cap fails fast with a retriable
// FillSaturatedError instead of queueing on the upstream, which a request
// with a retained stale value absorbs as a degraded response and a cold
// request surfaces as 503 + Retry-After. The breaker never sees a rejected
// fill — saturation is dashboard-side backpressure, not upstream failure.

// fillRetryAfter is the nominal Retry-After hint for a saturated fill: long
// enough for the in-flight burst to drain, short enough that clients come
// back while their browser cache is still warm. writeFetchError adds random
// jitter on top so a synchronized cohort does not re-stampede.
const fillRetryAfter = 2 * time.Second

// FillSaturatedError reports a cache fill rejected because the source's
// concurrent-fill cap was reached.
type FillSaturatedError struct {
	Source     string
	RetryAfter time.Duration
}

func (e *FillSaturatedError) Error() string {
	return fmt.Sprintf("core: %s: concurrent upstream fills at cap, retry in %v",
		e.Source, e.RetryAfter)
}

// fillGate is one source's admission counter. cap <= 0 means unlimited (the
// gate still tracks in-flight and peak for /metrics).
type fillGate struct {
	source   string
	cap      int64
	inflight atomic.Int64
	peak     atomic.Int64
	rejected atomic.Int64
}

// tryAcquire claims a fill slot, returning false (and counting the
// rejection) when the source is at its cap.
func (g *fillGate) tryAcquire() bool {
	n := g.inflight.Add(1)
	if g.cap > 0 && n > g.cap {
		g.inflight.Add(-1)
		g.rejected.Add(1)
		return false
	}
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return true
		}
	}
}

// release returns a slot claimed by tryAcquire.
func (g *fillGate) release() { g.inflight.Add(-1) }

// FillStat is one source's fill-admission snapshot.
type FillStat struct {
	Source   string `json:"source"`
	Cap      int    `json:"cap"` // 0 = unlimited
	InFlight int    `json:"in_flight"`
	Peak     int    `json:"peak"`
	Rejected int64  `json:"rejected"`
}

// FillStats returns the per-source admission counters in source-name order.
func (s *Server) FillStats() []FillStat {
	out := make([]FillStat, 0, len(fillSources))
	for _, src := range fillSources {
		g := s.fills[src]
		out = append(out, FillStat{
			Source:   g.source,
			Cap:      int(g.cap),
			InFlight: int(g.inflight.Load()),
			Peak:     int(g.peak.Load()),
			Rejected: g.rejected.Load(),
		})
	}
	return out
}

// fillSources lists the gated sources in deterministic order.
var fillSources = []string{srcCtld, srcDBD, srcNews, srcStorage}

// newFillGates builds one gate per data source with the configured cap.
func newFillGates(cap int) map[string]*fillGate {
	gates := make(map[string]*fillGate, len(fillSources))
	for _, src := range fillSources {
		gates[src] = &fillGate{source: src, cap: int64(cap)}
	}
	return gates
}
