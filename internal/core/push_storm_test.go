package core

import (
	"net/http"
	"testing"

	"ooddash/internal/push"
	"ooddash/internal/resilience"
	"ooddash/internal/slurmcli"
)

// ctldState returns the slurmctld breaker's snapshot.
func ctldState(t *testing.T, e *env) resilience.Stats {
	t.Helper()
	for _, b := range e.server.Resilience().Snapshot() {
		if b.Source == srcCtld {
			return b
		}
	}
	t.Fatal("no slurmctld breaker registered")
	return resilience.Stats{}
}

// TestDrillPushBackoffUnderNodeFailureStorm asserts the push scheduler's
// load-shedding posture through a node-failure storm that takes slurmctld
// out: while refreshes come back degraded (stale-while-error, then breaker
// short-circuits) the source's cadence stretches to 2xTTL, and once the
// storm clears and the breaker closes the 1xTTL cadence returns.
func TestDrillPushBackoffUnderNodeFailureStorm(t *testing.T) {
	var fr *slurmcli.FaultRunner
	e := newEnvWith(t, func(c *Config) {
		c.Push.DisableIdlePause = true // no SSE subscriber in this drill
		c.Push.Jitter = -1             // exact cadence math below
	}, func(inner slurmcli.Runner) slurmcli.Runner {
		fr = slurmcli.NewFaultRunner(inner, 7, nil)
		return fr
	})
	sched := e.server.PushScheduler()
	wd := e.server.widget("system_status")
	ttl := wd.TTL
	if _, err := sched.Register(push.Source{
		Widget: wd.Name, Key: wd.sourceKey("alice"), TTL: ttl,
		Fetch: e.server.pushFetch(wd.Name, wd.path(), "alice"),
	}); err != nil {
		t.Fatal(err)
	}
	// Warm the cache so the storm has a last-known-good value to degrade to.
	e.wantStatus("alice", "/api/system_status", http.StatusOK)

	// The storm: nodes start failing their health checks and slurmctld stops
	// answering under the load.
	for _, n := range []string{"c001", "c002", "c003"} {
		if err := e.cluster.Ctl.SetNodeDown(n, "health check storm"); err != nil {
			t.Fatal(err)
		}
	}
	fr.SetRules(slurmcli.FaultRule{Outage: true})

	// First due refresh hits the dead controller, serves stale, and must
	// stretch its own cadence to 2xTTL.
	e.clock.Advance(ttl)
	if ran := e.server.TickPush(); ran != 1 {
		t.Fatalf("refreshes at 1xTTL into the storm = %d, want 1", ran)
	}
	if got := sched.Stats().Skipped; got != 1 {
		t.Fatalf("skipped cycles after degraded refresh = %d, want 1", got)
	}

	// One TTL later the source must NOT be due: that cycle is shed.
	e.clock.Advance(ttl)
	if ran := e.server.TickPush(); ran != 0 {
		t.Fatalf("refreshes during the shed cycle = %d, want 0", ran)
	}

	// Meanwhile client traffic keeps failing over to stale data and opens
	// the breaker (FailureThreshold consecutive failed calls).
	for i := 0; i < 3; i++ {
		status, hdr, body := e.getFull("alice", "/api/system_status")
		if status != http.StatusOK || hdr.Get(degradedHeader) == "" {
			t.Fatalf("storm request %d: status %d degraded=%q: %.120s",
				i, status, hdr.Get(degradedHeader), body)
		}
	}
	if st := ctldState(t, e); st.State != resilience.Open {
		t.Fatalf("breaker state during storm = %s, want open", st.State)
	}

	// The stretched refresh fires at 2xTTL, short-circuits on the open
	// breaker, stays degraded, and stretches again.
	e.clock.Advance(ttl)
	if ran := e.server.TickPush(); ran != 1 {
		t.Fatalf("refreshes at the stretched due time = %d, want 1", ran)
	}
	if got := sched.Stats().Skipped; got != 2 {
		t.Fatalf("skipped cycles while breaker open = %d, want 2", got)
	}
	e.clock.Advance(ttl)
	if ran := e.server.TickPush(); ran != 0 {
		t.Fatalf("refreshes during the second shed cycle = %d, want 0", ran)
	}

	// Storm over: controller answers again, nodes reboot back into service.
	fr.SetRules()
	for _, n := range []string{"c001", "c002", "c003"} {
		if err := e.cluster.Ctl.RebootNode(n, "storm recovery"); err != nil {
			t.Fatal(err)
		}
	}
	skippedBefore := sched.Stats().Skipped

	// The next due refresh probes the half-open breaker, succeeds fresh, and
	// restores the 1xTTL cadence.
	e.clock.Advance(ttl)
	if ran := e.server.TickPush(); ran != 1 {
		t.Fatalf("refreshes at recovery = %d, want 1", ran)
	}
	if st := ctldState(t, e); st.State != resilience.Closed {
		t.Fatalf("breaker state after recovery probe = %s, want closed", st.State)
	}
	e.clock.Advance(ttl)
	if ran := e.server.TickPush(); ran != 1 {
		t.Fatalf("refreshes one TTL after recovery = %d, want 1 (cadence restored)", ran)
	}
	if got := sched.Stats().Skipped; got != skippedBefore {
		t.Fatalf("skipped cycles grew after recovery: %d -> %d", skippedBefore, got)
	}
}
