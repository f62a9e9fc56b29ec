package core

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/clock"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
)

// newRESTBackedEnv builds the standard test env with both Slurm sources
// riding the REST backend instead of the CLI shell-out.
func newRESTBackedEnv(t testing.TB) *env {
	return newEnvDeps(t,
		func(c *Config) {
			c.Backend = BackendConfig{Slurmctld: BackendREST, Slurmdbd: BackendREST}
		},
		nil,
		func(d *Deps, cl *slurm.Cluster) {
			ts := slurmrest.NewTokenStore(d.Users)
			if err := ts.IssueStaff("test-dash-token", "ood-dashboard"); err != nil {
				t.Fatal(err)
			}
			srv := slurmrest.NewServer(cl, ts, slurmrest.Options{})
			d.REST = slurmrest.NewClient(srv, "test-dash-token")
			d.RESTServer = srv
		})
}

// TestBackendSwapEquivalence is the tentpole's contract at the widget
// level: with identical deterministic environments, a REST-backed dashboard
// serves byte-identical JSON to the CLI-backed one on every Slurm-sourced
// widget.
func TestBackendSwapEquivalence(t *testing.T) {
	cli := newEnv(t)
	defer cli.server.Close()
	rest := newRESTBackedEnv(t)
	defer rest.server.Close()
	seedMixedHistory(cli)
	seedMixedHistory(rest)

	paths := []string{
		"/api/recent_jobs",
		"/api/system_status",
		"/api/cluster_status",
		"/api/myjobs?range=24h",
		"/api/myjobs/charts?range=24h",
		"/api/jobperf?range=24h",
		"/api/node/c001",
		"/api/node/c001/jobs",
		"/api/jobperf/timeseries?range=24h&bucket=hour",
		"/api/usage/cluster?range=1y",
		"/api/usage/accounts?range=90d",
		"/api/usage/efficiency?range=30d",
	}
	for _, path := range paths {
		cs, cb := cli.get("alice", path)
		rs, rb := rest.get("alice", path)
		if cs != http.StatusOK || rs != http.StatusOK {
			t.Errorf("%s: status cli=%d rest=%d", path, cs, rs)
			continue
		}
		if string(cb) != string(rb) {
			t.Errorf("%s: bodies differ\ncli:  %s\nrest: %s", path, cb, rb)
		}
	}
}

// TestBackendRESTMetricsBridged asserts a REST-backed dashboard surfaces
// both the per-call command metrics (rest:<endpoint>) and the REST daemon's
// own families on /metrics.
func TestBackendRESTMetricsBridged(t *testing.T) {
	e := newRESTBackedEnv(t)
	defer e.server.Close()
	seedMixedHistory(e)
	if status, _ := e.get("alice", "/api/myjobs?range=24h"); status != http.StatusOK {
		t.Fatalf("myjobs status %d", status)
	}
	if status, _ := e.get("alice", "/api/recent_jobs"); status != http.StatusOK {
		t.Fatalf("recent_jobs status %d", status)
	}
	status, body := e.get("staff", "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`ooddash_slurm_commands_total{command="rest:accounting",daemon="slurmdbd",outcome="ok"}`,
		`ooddash_slurm_commands_total{command="rest:jobs",daemon="slurmctld",outcome="ok"}`,
		`ooddash_slurmrest_requests_total{endpoint="accounting",status="200"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBackendConfigValidation pins the construction errors: REST selected
// without a client, and unknown mode names.
func TestBackendConfigValidation(t *testing.T) {
	base := func() (Config, Deps) {
		clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
		cl, err := slurm.NewCluster(slurm.ClusterConfig{
			Name:       "t",
			Nodes:      []slurm.NodeSpec{{NamePrefix: "c", Count: 1, CPUs: 4, MemMB: 8 * 1024, Partitions: []string{"cpu"}}},
			Partitions: []slurm.PartitionSpec{{Name: "cpu", MaxTime: time.Hour, Default: true}},
			QOS:        []slurm.QOS{{Name: "normal"}},
		}, clock)
		if err != nil {
			t.Fatal(err)
		}
		dir := auth.NewDirectory()
		dir.AddUser(auth.User{Name: "alice"})
		return Config{ClusterName: "t"},
			Deps{Runner: slurmcli.NewSimRunner(cl), Users: dir, Clock: clock}
	}

	cfg, deps := base()
	cfg.Backend.Slurmdbd = BackendREST
	if _, err := NewServer(cfg, deps); err == nil || !strings.Contains(err.Error(), "Deps.REST is nil") {
		t.Errorf("rest without client: err = %v", err)
	}

	cfg, deps = base()
	cfg.Backend.Slurmctld = "grpc"
	if _, err := NewServer(cfg, deps); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown mode: err = %v", err)
	}
}
