package core

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
)

func TestConditionalWidgetRequests(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()

	status, header, body := e.getFull("alice", "/api/system_status")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	tag := header.Get("ETag")
	if !strings.HasPrefix(tag, `"`) || !strings.HasSuffix(tag, `"`) {
		t.Fatalf("ETag = %q, want quoted tag", tag)
	}

	// Revalidating with the tag: 304, empty body, counted on /metrics.
	req, _ := http.NewRequest("GET", e.web.URL+"/api/system_status", nil)
	req.Header.Set(auth.UserHeader, "alice")
	req.Header.Set("If-None-Match", tag)
	resp, err := e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp.StatusCode)
	}
	if resp.ContentLength > 0 {
		t.Fatalf("304 carried a body of %d bytes", resp.ContentLength)
	}
	_, metrics := e.get("staff", "/metrics")
	if !strings.Contains(string(metrics), `ooddash_not_modified_total{widget="system_status"} 1`) {
		t.Fatal("ooddash_not_modified_total not counted")
	}

	// A mismatched tag serves the full body with the same ETag (payload is
	// cached and unchanged).
	req.Header.Set("If-None-Match", `"0011223344556677"`)
	resp, err = e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != tag {
		t.Fatalf("mismatch revalidation: status %d etag %q, want 200 %q",
			resp.StatusCode, resp.Header.Get("ETag"), tag)
	}
	if len(body) == 0 {
		t.Fatal("expected a body on mismatch")
	}

	// Degraded responses must not be conditional: warm a widget, kill the
	// controller, expire the cache, and confirm the stale fallback carries
	// no ETag.
	status, _, _ = e.getFull("alice", "/api/recent_jobs")
	if status != http.StatusOK {
		t.Fatalf("warmup status %d", status)
	}
	e.cluster.Ctl.SetHealth(slurm.HealthDown, "etag drill")
	e.clock.Advance(31 * time.Second)
	status, header, _ = e.getFull("alice", "/api/recent_jobs")
	if status != http.StatusOK || header.Get(degradedHeader) == "" {
		t.Fatalf("degraded fetch: status %d degraded %q", status, header.Get(degradedHeader))
	}
	if got := header.Get("ETag"); got != "" {
		t.Fatalf("degraded response carried ETag %q", got)
	}
}
