package core

// Cache purging. cache.Purge drops entries past their stale grace window;
// without a sweep the server cache (and the rendered-response cache, whose
// keys include per-user variants and query strings) would grow without bound
// over weeks of uptime. TickPush — the server's one background step, driven
// by the StartPush loop or by a simulated-clock driver — sweeps both caches
// every Config.PurgeInterval on the shared clock.

// maybePurge sweeps when at least PurgeInterval has elapsed on the shared
// clock since the last sweep.
func (s *Server) maybePurge() {
	if s.cfg.PurgeInterval <= 0 {
		return
	}
	now := s.clock.Now()
	s.purgeMu.Lock()
	due := now.Sub(s.lastPurge) >= s.cfg.PurgeInterval
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
