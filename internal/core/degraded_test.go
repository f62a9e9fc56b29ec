package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"ooddash/internal/slurm"
)

// breakerState digs one source's circuit state out of the health payload.
func breakerState(t *testing.T, h *HealthResponse, source string) BreakerView {
	t.Helper()
	for _, b := range h.Breakers {
		if b.Source == source {
			return b
		}
	}
	t.Fatalf("no breaker for source %q in %+v", source, h.Breakers)
	return BreakerView{}
}

// TestDegradedModeEndToEnd walks the full failure drill on the simulated
// clock: controller dies mid-run, warm widgets fall back to last-known-good
// (200 + degraded marker), cold widgets fail fast (503 + Retry-After), the
// breaker opens and is visible on /api/admin/health and /metrics, and after
// recovery the half-open probe restores fresh, non-degraded service.
//
// Recent Jobs reads the one shared live-queue fill, so once any user has
// loaded it every user's view is warm: bob, who never asked before the
// outage, degrades to his own rows of the retained queue. A cold key is one
// nobody loaded at all.
func TestDegradedModeEndToEnd(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		Name: "drill", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	e.submit(slurm.SubmitRequest{
		Name: "bobs-run", User: "bob", Account: "lab-b", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})

	// Warm alice's recent-jobs cache while everything is healthy.
	status, header, _ := e.getFull("alice", "/api/recent_jobs")
	if status != 200 || header.Get("X-OODDash-Degraded") != "" {
		t.Fatalf("healthy fetch: status %d, degraded %q", status, header.Get("X-OODDash-Degraded"))
	}

	// The controller dies mid-run.
	e.cluster.Ctl.SetHealth(slurm.HealthDown, "failure drill")

	// Inside the TTL the cache still serves the fresh entry, not degraded.
	status, header, _ = e.getFull("alice", "/api/recent_jobs")
	if status != 200 || header.Get("X-OODDash-Degraded") != "" {
		t.Fatalf("within-TTL fetch: status %d, degraded %q", status, header.Get("X-OODDash-Degraded"))
	}

	// Past the TTL, the warm widget degrades instead of failing: 200 with
	// the stale header and the injected JSON markers.
	e.clock.Advance(31 * time.Second)
	status, header, body := e.getFull("alice", "/api/recent_jobs")
	if status != 200 {
		t.Fatalf("degraded fetch: status %d: %s", status, body)
	}
	if got := header.Get("X-OODDash-Degraded"); got != "stale" {
		t.Fatalf("X-OODDash-Degraded = %q, want %q", got, "stale")
	}
	if !bytes.Contains(body, []byte(`"degraded":true`)) || !bytes.Contains(body, []byte(`"age_seconds":31`)) {
		t.Fatalf("degraded body missing markers: %s", body)
	}
	if !bytes.Contains(body, []byte(`"drill"`)) {
		t.Fatalf("degraded body lost last-known-good data: %s", body)
	}

	// Bob never loaded Recent Jobs, but alice's load filled the shared
	// queue: his view degrades from it too, and holds only his rows.
	status, header, body = e.getFull("bob", "/api/recent_jobs")
	if status != 200 || header.Get("X-OODDash-Degraded") != "stale" {
		t.Fatalf("bob's fetch from the retained queue: status %d, degraded %q: %s",
			status, header.Get("X-OODDash-Degraded"), body)
	}
	if !bytes.Contains(body, []byte(`"bobs-run"`)) || bytes.Contains(body, []byte(`"drill"`)) {
		t.Fatalf("bob's degraded view is not exactly his rows: %s", body)
	}

	// A cold key (nobody loaded system_status) has no fallback: 503 with a
	// Retry-After hint. That is the third request-level failure (alice and
	// bob degraded, this one cold): the default threshold of 3 opens the
	// slurmctld breaker.
	status, header, body = e.getFull("bob", "/api/system_status")
	if status != 503 {
		t.Fatalf("cold fetch during outage: status %d: %s", status, body)
	}
	if ra, err := strconv.Atoi(header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", header.Get("Retry-After"))
	}
	var health HealthResponse
	e.getJSON("staff", "/api/admin/health", &health)
	ctld := breakerState(t, &health, "slurmctld")
	if ctld.State != "open" {
		t.Fatalf("slurmctld breaker = %q, want open: %+v", ctld.State, ctld)
	}
	if ctld.Retries == 0 || ctld.Failures < 3 || ctld.Opens != 1 {
		t.Fatalf("breaker counters = %+v", ctld)
	}
	if health.CacheStaleServed == 0 {
		t.Fatalf("cache_stale_served = 0, want > 0")
	}

	// While open: cold requests short-circuit without touching the backend,
	// warm requests keep serving stale.
	e.wantStatus("bob", "/api/system_status", 503)
	status, header, _ = e.getFull("alice", "/api/recent_jobs")
	if status != 200 || header.Get("X-OODDash-Degraded") != "stale" {
		t.Fatalf("warm fetch with open breaker: status %d, degraded %q", status, header.Get("X-OODDash-Degraded"))
	}
	e.getJSON("staff", "/api/admin/health", &health)
	ctld = breakerState(t, &health, "slurmctld")
	if ctld.ShortCircuits < 2 {
		t.Fatalf("short_circuits = %d, want >= 2", ctld.ShortCircuits)
	}
	if health.CacheBreakerOpen == 0 {
		t.Fatalf("cache_breaker_open = 0, want > 0")
	}

	// The breaker state is scrapeable in Prometheus exposition format.
	status, _, metrics := e.getFull("staff", "/metrics")
	if status != 200 {
		t.Fatalf("/metrics status = %d", status)
	}
	if !strings.Contains(string(metrics), `ooddash_breaker_state{source="slurmctld"} 2`) {
		t.Fatalf("/metrics missing open breaker gauge:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), `ooddash_breaker_opens_total{source="slurmctld"} 1`) {
		t.Fatalf("/metrics missing opens counter:\n%s", metrics)
	}

	// Recovery: the controller comes back, the open window (30s) elapses,
	// and the next request is admitted as a half-open probe. It succeeds,
	// closes the circuit, and serves fresh non-degraded data.
	e.cluster.Ctl.SetHealth(slurm.HealthUp, "")
	e.advance(31 * time.Second)
	status, header, body = e.getFull("alice", "/api/recent_jobs")
	if status != 200 {
		t.Fatalf("post-recovery fetch: status %d: %s", status, body)
	}
	if got := header.Get("X-OODDash-Degraded"); got != "" {
		t.Fatalf("post-recovery degraded header = %q, want empty", got)
	}
	if bytes.Contains(body, []byte(`"degraded"`)) {
		t.Fatalf("post-recovery body still marked degraded: %s", body)
	}
	e.getJSON("staff", "/api/admin/health", &health)
	ctld = breakerState(t, &health, "slurmctld")
	if ctld.State != "closed" {
		t.Fatalf("post-recovery breaker = %q, want closed: %+v", ctld.State, ctld)
	}
}
