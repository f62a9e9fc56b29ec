package core

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/obs"
	"ooddash/internal/obs/obstest"
)

// validateMetricsExposition checks the document against the Prometheus text
// format rules a scraper enforces; the actual validator is shared across
// registries (obs itself, core's /metrics, the fleet registry) in
// internal/obs/obstest.
func validateMetricsExposition(t *testing.T, text string) {
	t.Helper()
	obstest.Validate(t, text)
}

// TestMetricsExpositionValidity drives real widget traffic and then checks
// that the whole /metrics document parses as valid exposition and carries
// the per-widget histograms, per-source upstream attribution, and
// per-command Slurm attribution the tentpole promises.
func TestMetricsExpositionValidity(t *testing.T) {
	e := newEnv(t)
	e.wantStatus("alice", "/api/recent_jobs", http.StatusOK)
	e.wantStatus("alice", "/api/system_status", http.StatusOK)
	e.wantStatus("bob", "/api/myjobs", http.StatusOK)
	e.wantStatus("", "/api/recent_jobs", http.StatusUnauthorized)

	status, body := e.get("staff", "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d: %s", status, body)
	}
	text := string(body)
	validateMetricsExposition(t, text)

	for _, want := range []string{
		`ooddash_widget_request_seconds_bucket{widget="recent_jobs",le="+Inf"}`,
		`ooddash_widget_request_seconds_count{widget="recent_jobs"}`,
		`ooddash_widget_requests_total{widget="recent_jobs",status="200"} 1`,
		`ooddash_widget_requests_total{widget="recent_jobs",status="401"} 1`,
		`ooddash_upstream_latency_seconds_count{source="slurmctld"}`,
		`ooddash_upstream_outcomes_total{source="slurmctld",outcome="ok"}`,
		`ooddash_fetch_results_total{source="slurmdbd",result="ok"}`,
		`ooddash_slurm_commands_total{command="squeue",daemon="slurmctld",outcome="ok"}`,
		`ooddash_slurm_commands_total{command="sacct",daemon="slurmdbd",outcome="ok"}`,
		`ooddash_slurm_command_seconds_count{daemon="slurmctld"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceHeader asserts that every API response — success, client error,
// and auth failure alike — carries X-OODDash-Trace, that a well-formed
// inbound trace ID is adopted, and that a malformed one (which could inject
// into logs) is replaced.
func TestTraceHeader(t *testing.T) {
	e := newEnv(t)
	for _, tc := range []struct {
		user, path string
		status     int
	}{
		{"alice", "/api/recent_jobs", http.StatusOK},
		{"alice", "/api/job/999999", http.StatusNotFound},
		{"", "/api/storage", http.StatusUnauthorized},
		{"alice", "/metrics", http.StatusForbidden},
	} {
		status, hdr, _ := e.getFull(tc.user, tc.path)
		if status != tc.status {
			t.Fatalf("GET %s as %q: status %d, want %d", tc.path, tc.user, status, tc.status)
		}
		trace := hdr.Get("X-OODDash-Trace")
		if trace == "" {
			t.Errorf("GET %s (status %d): no X-OODDash-Trace header", tc.path, status)
		} else if !obs.ValidTraceID(trace) {
			t.Errorf("GET %s: malformed trace ID %q", tc.path, trace)
		}
	}

	send := func(inbound string) string {
		req, err := http.NewRequest("GET", e.web.URL+"/api/recent_jobs", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(auth.UserHeader, "alice")
		req.Header.Set("X-OODDash-Trace", inbound)
		resp, err := e.web.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-OODDash-Trace")
	}
	if got := send("proxy-abc123"); got != "proxy-abc123" {
		t.Errorf("valid inbound trace not adopted: got %q", got)
	}
	if got := send("bad id\"with} junk"); got == "bad id\"with} junk" || !obs.ValidTraceID(got) {
		t.Errorf("malformed inbound trace not replaced: got %q", got)
	}
}

// TestMountDuplicateNames locks in Mount's documented tolerance for the
// same widget named twice in the requested subset (each widget mounts once,
// no mux double-registration panic, no spurious unknown-widget error), and
// that subset-mounted widgets come instrumented.
func TestMountDuplicateNames(t *testing.T) {
	e := newEnv(t)
	mux := http.NewServeMux()
	if err := e.server.Mount(mux, "recent_jobs", "recent_jobs", "system_status"); err != nil {
		t.Fatalf("Mount with duplicate names: %v", err)
	}
	req := httptest.NewRequest("GET", "/api/recent_jobs", nil)
	req.Header.Set(auth.UserHeader, "alice")
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("mounted subset: status %d: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("X-OODDash-Trace") == "" {
		t.Error("subset-mounted widget missing trace header (not instrumented)")
	}
	// Unknown names must still be reported.
	if err := e.server.Mount(http.NewServeMux(), "recent_jobs", "nope"); err == nil {
		t.Error("Mount with unknown widget: no error")
	}
}

// TestDegradedArrayPayload is the regression test for the silent-annotation
// bug: a degraded response with an array payload must still carry the
// X-OODDash-Degraded header (only the JSON annotation is impossible), the
// drop must be counted, and object payloads must report their age rounded
// to the nearest second rather than truncated.
func TestDegradedArrayPayload(t *testing.T) {
	e := newEnv(t)
	s := e.server
	meta := fetchMeta{Degraded: true, Age: 59*time.Second + 900*time.Millisecond}

	before := s.obsm.annotationsDropped.Value()
	rr := httptest.NewRecorder()
	s.writeWidgetJSON(rr, httptest.NewRequest("GET", "/api/test", nil), meta, []int{1, 2, 3})
	if got := rr.Header().Get(degradedHeader); got != "stale" {
		t.Errorf("array payload: %s header = %q, want \"stale\"", degradedHeader, got)
	}
	var arr []int
	if err := json.Unmarshal(rr.Body.Bytes(), &arr); err != nil || len(arr) != 3 {
		t.Errorf("array payload mangled: %v %s", err, rr.Body.String())
	}
	if got := s.obsm.annotationsDropped.Value(); got != before+1 {
		t.Errorf("annotationsDropped = %d, want %d", got, before+1)
	}

	rr = httptest.NewRecorder()
	s.writeWidgetJSON(rr, httptest.NewRequest("GET", "/api/test", nil), meta, map[string]string{"a": "b"})
	var obj struct {
		Degraded bool  `json:"degraded"`
		Age      int64 `json:"age_seconds"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &obj); err != nil {
		t.Fatalf("object payload: %v: %s", err, rr.Body.String())
	}
	if !obj.Degraded {
		t.Error("object payload: degraded annotation missing")
	}
	if want := int64(math.Round(meta.Age.Seconds())); obj.Age != want || obj.Age != 60 {
		t.Errorf("age_seconds = %d, want 60 (rounded, not truncated)", obj.Age)
	}
	if got := s.obsm.annotationsDropped.Value(); got != before+1 {
		t.Errorf("object payload wrongly counted as dropped: %d", got)
	}
}
