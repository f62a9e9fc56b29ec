package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"ooddash/internal/slo"
	"ooddash/internal/slurmcli"
)

// TestSLOAdminEndpoint checks the admin gate and the shape of the live SLO
// snapshot: regular users get 403, staff see both default objectives with
// their budget ledgers and (initially inactive) alert rules.
func TestSLOAdminEndpoint(t *testing.T) {
	e := newEnv(t)
	e.wantStatus("alice", "/api/admin/slo", http.StatusForbidden)

	var st slo.Status
	e.getJSON("staff", "/api/admin/slo", &st)
	if len(st.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2 (availability, latency)", len(st.Objectives))
	}
	byName := map[string]slo.ObjectiveStatus{}
	for _, o := range st.Objectives {
		byName[o.Name] = o
	}
	avail, ok := byName["availability"]
	if !ok {
		t.Fatalf("no availability objective in %v", byName)
	}
	if avail.Budget.WindowSeconds != slo.BudgetWindow.Seconds() {
		t.Fatalf("budget window = %v, want %v", avail.Budget.WindowSeconds, slo.BudgetWindow.Seconds())
	}
	if len(avail.Alerts) != 2 {
		t.Fatalf("availability alerts = %d, want 2 (page, ticket)", len(avail.Alerts))
	}
	for _, a := range avail.Alerts {
		if a.State != "inactive" {
			t.Fatalf("fresh engine: alert %s state = %q, want inactive", a.Rule, a.State)
		}
	}
	lat, ok := byName["latency"]
	if !ok {
		t.Fatalf("no latency objective in %v", byName)
	}
	if lat.ThresholdSeconds <= 0 {
		t.Fatalf("latency threshold_seconds = %v, want > 0", lat.ThresholdSeconds)
	}
}

// TestSLOAdminPage checks the staff-only budget/alert panel: the HTML page
// is admin-gated like /admin, and its driving script is served.
func TestSLOAdminPage(t *testing.T) {
	e := newEnv(t)
	e.wantStatus("alice", "/admin/slo", http.StatusForbidden)
	status, body := e.get("staff", "/admin/slo")
	if status != http.StatusOK {
		t.Fatalf("/admin/slo as staff = %d, want 200", status)
	}
	for _, want := range []string{"Service Objectives", "slo-budgets", "/assets/slo.js"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/admin/slo page missing %q", want)
		}
	}
	status, js := e.get("staff", "/assets/slo.js")
	if status != http.StatusOK || !bytes.Contains(js, []byte("/api/admin/slo")) {
		t.Fatalf("/assets/slo.js = %d, must fetch /api/admin/slo", status)
	}
}

// TestSLOMiddlewareRecording checks that the instrument middleware feeds the
// SLI recorders for widget traffic but that the observability surfaces
// themselves (/metrics, /api/admin/slo) stay out of the SLIs — an admin
// polling dashboards must not inflate the availability denominator.
func TestSLOMiddlewareRecording(t *testing.T) {
	e := newEnv(t)
	g0, b0 := e.server.SLO().EventTotals("availability")

	e.wantStatus("alice", "/api/recent_jobs", http.StatusOK)
	e.wantStatus("alice", "/api/system_status", http.StatusOK)

	g1, b1 := e.server.SLO().EventTotals("availability")
	if g1 != g0+2 || b1 != b0 {
		t.Fatalf("after 2 healthy widget GETs: good %d->%d bad %d->%d, want +2 good, +0 bad", g0, g1, b0, b1)
	}
	lg, lb := e.server.SLO().EventTotals("latency")
	if lg != 2 || lb != 0 {
		t.Fatalf("latency totals = %d/%d, want 2 good / 0 bad", lg, lb)
	}

	// Self-observing routes must not record.
	e.wantStatus("staff", "/metrics", http.StatusOK)
	e.wantStatus("staff", "/api/admin/slo", http.StatusOK)
	g2, b2 := e.server.SLO().EventTotals("availability")
	if g2 != g1 || b2 != b1 {
		t.Fatalf("observability GETs recorded SLI events: good %d->%d bad %d->%d", g1, g2, b1, b2)
	}

	// Recording can be toggled off at runtime (the bench A/B switch).
	e.server.SetSLORecordingDisabled(true)
	e.wantStatus("alice", "/api/recent_jobs", http.StatusOK)
	g3, _ := e.server.SLO().EventTotals("availability")
	if g3 != g2 {
		t.Fatalf("disabled recorder still counted: good %d->%d", g2, g3)
	}
	e.server.SetSLORecordingDisabled(false)
}

// sloDrillObjectives are chaos-scale objectives for the determinism drill:
// tight windows and for-durations so a scripted outage walks an alert
// through its full lifecycle in a few simulated minutes.
func sloDrillObjectives() []slo.Objective {
	return []slo.Objective{
		{
			Name: "availability", Kind: slo.KindAvailability, Target: 0.9,
			Rules: []slo.Rule{{
				Name: "page", Severity: "page", Burn: 2,
				Short: 2 * time.Minute, Long: 5 * time.Minute,
				For: time.Minute, KeepFor: time.Minute,
			}},
		},
		{
			Name: "latency", Kind: slo.KindLatency, Target: 0.99,
			Threshold: 10 * time.Second,
			Rules: []slo.Rule{{
				Name: "ticket", Severity: "ticket", Burn: 3,
				Short: 2 * time.Minute, Long: 5 * time.Minute,
				For: time.Minute, KeepFor: time.Minute,
			}},
		},
	}
}

// runSLOTransitionScript builds a fresh env, scripts a deterministic
// degradation (warm cache, total slurmctld outage, stale-while-error
// serving past the TTL, recovery) on the sim clock, and returns the final
// /api/admin/slo body. Every SLI event, window bucket, and alert
// transition derives from the simulated clock, so two runs of the same
// script must produce byte-identical snapshots — including the transition
// log's timestamps and ordering (satellite: determinism).
func runSLOTransitionScript(t *testing.T) []byte {
	t.Helper()
	var fr *slurmcli.FaultRunner
	e := newEnvWith(t, func(c *Config) {
		c.SLO.Objectives = sloDrillObjectives()
	}, func(inner slurmcli.Runner) slurmcli.Runner {
		fr = slurmcli.NewFaultRunner(inner, 7, nil)
		return fr
	})

	// Warm the cache so the outage degrades to stale 200s (bad availability
	// events) instead of cold-cache 503s, which the SLI skips.
	e.wantStatus("alice", "/api/system_status", http.StatusOK)

	step := func() {
		e.advance(30 * time.Second)
		_, _ = e.get("alice", "/api/system_status")
		e.server.TickPush() // evaluates the alert state machine on cadence
	}

	fr.SetRules(slurmcli.FaultRule{Outage: true})
	for i := 0; i < 10; i++ { // 5 min of degraded stale serving
		step()
	}
	fr.SetRules()             // recovery
	for i := 0; i < 12; i++ { // 6 min of healthy traffic: clear + resolve
		step()
	}

	status, body := e.get("staff", "/api/admin/slo")
	if status != http.StatusOK {
		t.Fatalf("GET /api/admin/slo = %d, want 200", status)
	}
	return body
}

// TestSLOAdminTransitionDeterminism replays the identical event sequence in
// two independent environments and requires byte-identical /api/admin/slo
// snapshots, transition log included.
func TestSLOAdminTransitionDeterminism(t *testing.T) {
	a := runSLOTransitionScript(t)
	b := runSLOTransitionScript(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("non-deterministic SLO snapshot:\nrun A: %s\nrun B: %s", a, b)
	}
	// The script must actually exercise the state machine: the page alert
	// has to fire during the outage and resolve after recovery.
	var st slo.Status
	if err := json.Unmarshal(a, &st); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	var page *slo.AlertStatus
	for i := range st.Objectives {
		if st.Objectives[i].Name != "availability" {
			continue
		}
		for j := range st.Objectives[i].Alerts {
			if st.Objectives[i].Alerts[j].Rule == "page" {
				page = &st.Objectives[i].Alerts[j]
			}
		}
	}
	if page == nil {
		t.Fatal("no availability/page alert in snapshot")
	}
	if page.Fired < 1 || page.Resolved < 1 {
		t.Fatalf("page alert fired=%d resolved=%d, want both >= 1 (script must fire and resolve)", page.Fired, page.Resolved)
	}
	if page.State != "inactive" {
		t.Fatalf("page alert final state = %q, want inactive after resolution", page.State)
	}
}
