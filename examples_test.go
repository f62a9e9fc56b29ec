package ooddash

// Smoke tests that build and run every example and CLI entry point as a
// subprocess, so the runnable documentation can't rot. Skipped with -short.

import (
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"
	"time"

	"ooddash/internal/workload"
)

// goRun executes `go run <pkg> <args...>` with a deadline and returns its
// combined output and exit error.
func goRun(t *testing.T, timeout time.Duration, pkg string, args ...string) (string, error) {
	t.Helper()
	argv := append([]string{"run", pkg}, args...)
	cmd := exec.Command("go", argv...)
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
		<-done
		t.Fatalf("go run %s timed out after %v\n%s", pkg, timeout, out)
	}
	return string(out), err
}

// runGo is goRun for commands that must exit 0.
func runGo(t *testing.T, timeout time.Duration, pkg string, args ...string) string {
	t.Helper()
	out, err := goRun(t, timeout, pkg, args...)
	if err != nil {
		t.Fatalf("go run %s: %v\n%s", pkg, err, out)
	}
	return out
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests")
	}
	cases := []struct {
		pkg  string
		want string // substring that proves the example did its job
	}{
		{"./examples/quickstart", "System Status:"},
		{"./examples/groupmonitor", "CSV export of"},
		{"./examples/efficiencyreport", "cluster efficiency report"},
		{"./examples/portability", "failure isolation"},
		{"./examples/adminreport", "cluster accounting overview"},
		{"./examples/maintenancewindow", "MAINT"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.pkg, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out := runGo(t, 2*time.Minute, tc.pkg)
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output missing %q:\n%.600s", tc.want, out)
			}
		})
	}
}

func TestSlurmsimCLIRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests")
	}
	out := runGo(t, 2*time.Minute, "./cmd/slurmsim", "-small", "sinfo")
	if !strings.Contains(out, "PARTITION") {
		t.Fatalf("sinfo output:\n%s", out)
	}
	out = runGo(t, 2*time.Minute, "./cmd/slurmsim", "-small", "sdiag")
	if !strings.Contains(out, "slurmctld statistics") {
		t.Fatalf("sdiag output:\n%s", out)
	}
}

func TestBenchharnessSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests")
	}
	out := runGo(t, 3*time.Minute, "./cmd/benchharness", "-small", "-experiment", "privacy")
	if !strings.Contains(out, "violations") || strings.Contains(out, "VIOLATION:") {
		t.Fatalf("privacy experiment output:\n%s", out)
	}
}

func TestLoadgenLiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests")
	}
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	news := httptest.NewServer(env.Feed)
	defer news.Close()
	server, err := env.NewServer(news.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	web := httptest.NewServer(server)
	defer web.Close()
	out := runGo(t, 2*time.Minute, "./cmd/loadgen", "-url", web.URL,
		"-users", "3", "-duration", "2s", "-interval", "200ms", "-max-error-rate", "0")
	for _, want := range []string{"failed widgets:         0", "widget ", "recent_jobs", "system_status"} {
		if !strings.Contains(out, want) {
			t.Fatalf("loadgen output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadgenRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests")
	}
	for _, flag := range []string{"-usercount", "-users", "-duration"} {
		out, err := goRun(t, 2*time.Minute, "./cmd/loadgen", "-url", "http://127.0.0.1:1", flag, "0")
		if err == nil || strings.Contains(out, "panic:") || !strings.Contains(out, flag+" must be") {
			t.Fatalf("loadgen %s 0: err=%v, want a non-zero exit naming the flag without a panic:\n%s", flag, err, out)
		}
	}
}
