package core

import "time"

// Cache purging. cache.Purge drops entries past their stale grace window;
// without a sweep the server cache (and the rendered-response cache, whose
// keys include per-user variants and query strings) would grow without bound
// over weeks of uptime. TickPush — the server's one background step, driven
// by the StartPush loop or by a simulated-clock driver — sweeps both caches
// every purgeInterval on the shared clock.

// purgeInterval is how often the sweep runs.
const purgeInterval = time.Minute

// maybePurge sweeps when at least purgeInterval has elapsed on the shared
// clock since the last sweep.
func (s *Server) maybePurge() {
	now := s.clock.Now()
	s.purgeMu.Lock()
	due := now.Sub(s.lastPurge) >= purgeInterval
	if due {
		// Claim the sweep before unlocking so concurrent callers don't stack.
		s.lastPurge = now
	}
	s.purgeMu.Unlock()
	if !due {
		return
	}
	if n := s.cache.Purge() + s.rendered.Purge(); n > 0 {
		s.purgedTotal.Add(int64(n))
	}
}
