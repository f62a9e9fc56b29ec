package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// flakyRunner wraps a Runner and fails selected commands a configurable
// number of times — the failure-injection harness for backend resilience.
type flakyRunner struct {
	inner slurmcli.Runner

	mu        sync.Mutex
	failures  map[string]int // remaining failures per sabotaged command
	callCount map[string]int
}

func newFlakyRunner(inner slurmcli.Runner) *flakyRunner {
	return &flakyRunner{
		inner:     inner,
		failures:  make(map[string]int),
		callCount: make(map[string]int),
	}
}

func (f *flakyRunner) failNext(cmd string, times int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failures[cmd] = times
}

func (f *flakyRunner) Run(name string, args ...string) (string, error) {
	f.mu.Lock()
	f.callCount[name]++
	shouldFail := f.failures[name] > 0
	if shouldFail {
		f.failures[name]--
	}
	f.mu.Unlock()
	if shouldFail {
		// Wrap the availability sentinel so the resilience layer treats this
		// as an outage (retry + breaker + 503), not a semantic error.
		return "", fmt.Errorf("slurm_load_jobs error: Unable to contact slurm controller (connect failure): %w", slurm.ErrUnavailable)
	}
	return f.inner.Run(name, args...)
}

func (f *flakyRunner) calls(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.callCount[name]
}

// newFlakyEnv builds the standard env with a flaky runner spliced in.
func newFlakyEnv(t *testing.T) (*env, *flakyRunner) {
	t.Helper()
	e := newEnv(t)
	flaky := newFlakyRunner(slurmcli.NewSimRunner(e.cluster))
	server, err := NewServer(Config{ClusterName: "testcluster"}, Deps{
		Runner:  flaky,
		Storage: e.storage,
		Users:   e.users,
		Logs:    e.logs,
		Clock:   e.clock,
		Events:  e.cluster.Ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.server = server
	// Re-point the test web server at the flaky-backed server.
	e.web.Config.Handler = server
	return e, flaky
}

func TestSlurmOutageDegradesOneWidget(t *testing.T) {
	e, flaky := newFlakyEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	// squeue is down: recent jobs fails (503, cold cache, no stale copy);
	// sinfo- and storage-backed widgets keep serving (§2.4 modularity under
	// partial Slurm outage).
	flaky.failNext("squeue", 100)
	e.wantStatus("alice", "/api/recent_jobs", 503)
	e.wantStatus("alice", "/api/system_status", 200)
	e.wantStatus("alice", "/api/storage", 200)
	e.wantStatus("alice", "/api/myjobs?range=24h", 200) // sacct unaffected
}

func TestErrorsAreNotCached(t *testing.T) {
	e, flaky := newFlakyEnv(t)
	e.submit(slurm.SubmitRequest{
		Name: "recovers", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	// Two failures: the retry budget is two attempts per request, so the
	// first request exhausts both and surfaces the outage.
	flaky.failNext("squeue", 2)
	e.wantStatus("alice", "/api/recent_jobs", 503)
	// The failure must not poison the cache: the very next request retries
	// the command and succeeds without waiting for any TTL.
	var resp RecentJobsResponse
	e.getJSON("alice", "/api/recent_jobs", &resp)
	if len(resp.Jobs) != 1 || resp.Jobs[0].Name != "recovers" {
		t.Fatalf("post-recovery jobs = %+v", resp.Jobs)
	}
}

// TestSingleTransientFailureIsRetriedInline: one blip is absorbed by the
// in-request retry — the user never sees it.
func TestSingleTransientFailureIsRetriedInline(t *testing.T) {
	e, flaky := newFlakyEnv(t)
	flaky.failNext("squeue", 1)
	e.wantStatus("alice", "/api/recent_jobs", 200)
	if got := flaky.calls("squeue"); got != 2 {
		t.Fatalf("squeue calls = %d, want 2 (failed attempt + retry)", got)
	}
}

func TestRecoveredResultIsCachedAgain(t *testing.T) {
	e, flaky := newFlakyEnv(t)
	flaky.failNext("squeue", 2)
	e.wantStatus("alice", "/api/recent_jobs", 503)
	e.wantStatus("alice", "/api/recent_jobs", 200)
	before := flaky.calls("squeue")
	for i := 0; i < 5; i++ {
		e.wantStatus("alice", "/api/recent_jobs", 200)
	}
	if got := flaky.calls("squeue") - before; got != 0 {
		t.Fatalf("squeue calls after recovery = %d, want 0 (cached)", got)
	}
}

func TestSacctOutageBreaksHistoryRoutesOnly(t *testing.T) {
	e, flaky := newFlakyEnv(t)
	// Both accounting commands ride slurmdbd: sacct feeds the job tables,
	// sreport feeds the rollup widgets. A daemon outage fails them together.
	flaky.failNext("sacct", 100)
	flaky.failNext("sreport", 100)
	// Three consecutive failed requests trip the slurmdbd breaker (threshold
	// 3); whether short-circuited or not, each surfaces as 503.
	e.wantStatus("alice", "/api/myjobs?range=24h", 503)
	e.wantStatus("alice", "/api/jobperf?range=24h", 503)
	e.wantStatus("alice", "/api/insights?range=24h", 503)
	e.wantStatus("alice", "/api/recent_jobs", 200)
	e.wantStatus("alice", "/api/cluster_status", 200)
}

// TestSacctOutageServesWarmHistoryStale: once My Jobs, its charts and
// export, insights and the admin overview are warm, a slurmdbd outage that
// outlasts their TTL serves the last fill marked stale, not a cold 503 —
// including a range nobody opened before the outage, which derives from
// the same fill.
func TestSacctOutageServesWarmHistoryStale(t *testing.T) {
	e, flaky := newFlakyEnv(t)
	seedMixedHistory(e)
	views := []struct{ user, path string }{
		{"alice", "/api/myjobs?range=24h"},
		{"alice", "/api/myjobs/charts?range=24h"},
		{"alice", "/api/insights?range=24h"},
		{"staff", "/api/admin/overview?range=24h"},
	}
	for _, v := range views {
		e.wantStatus(v.user, v.path, 200)
	}
	flaky.failNext("sacct", 1000)
	e.advance(3 * time.Minute)
	for _, v := range append(views, struct{ user, path string }{"alice", "/api/myjobs?range=30d"}) {
		status, header, body := e.getFull(v.user, v.path)
		if status != 200 {
			t.Fatalf("%s during the outage: status %d: %s", v.path, status, body)
		}
		if got := header.Get("X-OODDash-Degraded"); got != "stale" {
			t.Fatalf("%s: X-OODDash-Degraded = %q, want stale", v.path, got)
		}
		if !bytes.Contains(body, []byte(`"age_seconds":180`)) {
			t.Fatalf("%s: body lacks the fill's age: %s", v.path, body)
		}
	}
	status, header, _ := e.getFull("alice", "/api/myjobs/export.csv?range=7d")
	if status != 200 || header.Get("X-OODDash-Degraded") != "stale" {
		t.Fatalf("export during the outage: status %d, degraded %q", status, header.Get("X-OODDash-Degraded"))
	}
}

func TestScontrolOutageWithWarmCacheKeepsServing(t *testing.T) {
	e, flaky := newFlakyEnv(t)
	// Warm the cluster-status cache, then take scontrol down: the widget
	// keeps serving the cached snapshot until the TTL expires.
	e.wantStatus("alice", "/api/cluster_status", 200)
	flaky.failNext("scontrol", 100)
	e.wantStatus("alice", "/api/cluster_status", 200)
	// Past the TTL the cache falls back to the last-known-good snapshot and
	// marks the response degraded instead of failing the widget.
	e.advance(2 * time.Minute)
	status, header, body := e.getFull("alice", "/api/cluster_status")
	if status != 200 {
		t.Fatalf("degraded cluster_status = %d: %s", status, body)
	}
	if got := header.Get("X-OODDash-Degraded"); got != "stale" {
		t.Fatalf("X-OODDash-Degraded = %q, want %q", got, "stale")
	}
	if !bytes.Contains(body, []byte(`"degraded":true`)) {
		t.Fatalf("degraded body missing marker: %s", body)
	}
	if !bytes.Contains(body, []byte(`"age_seconds":`)) {
		t.Fatalf("degraded body missing age_seconds: %s", body)
	}
}

// TestConcurrentRouteAccess hammers mixed routes from many goroutines;
// meaningful under -race, which the CI-style full run uses.
func TestConcurrentRouteAccess(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	paths := []string{
		"/api/recent_jobs", "/api/system_status", "/api/accounts",
		"/api/storage", "/api/myjobs?range=24h", "/api/cluster_status",
		"/api/jobperf?range=24h", "/api/events",
		"/api/myjobs/charts?range=7d", "/api/myjobs/export.csv?range=30d",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			users := []string{"alice", "bob", "carol"}
			for i := 0; i < 25; i++ {
				user := users[(g+i)%3]
				status, _ := e.get(user, paths[(g+i)%len(paths)])
				if status != 200 {
					t.Errorf("GET as %s: %d", user, status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
