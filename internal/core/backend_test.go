package core

import (
	"fmt"
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

// backendQueries are the query strings the equivalence test sends to the
// Slurm widgets whose routes take one; every other widget is fetched bare.
var backendQueries = map[string]string{
	"my_jobs":            "range=24h",
	"my_jobs_export":     "range=24h",
	"my_jobs_charts":     "range=24h",
	"job_perf":           "range=24h",
	"jobperf_timeseries": "range=24h&bucket=hour",
	"usage_cluster":      "range=1y",
	"usage_accounts":     "range=90d",
	"usage_efficiency":   "range=30d",
}

// TestBackendSwapEquivalence: with identical deterministic environments, a
// REST-backed dashboard serves byte-identical bodies to the CLI-backed one
// on every cached Slurm-sourced widget. The route list is the widget
// table's Slurm widgets, path values filled in from the fixture.
func TestBackendSwapEquivalence(t *testing.T) {
	cli := newEnv(t)
	defer cli.server.Close()
	rest := newRESTBackedEnv(t)
	defer rest.server.Close()
	var arrayID slurm.JobID
	for _, e := range []*env{cli, rest} {
		seedMixedHistory(e)
		arrayID = e.submit(slurm.SubmitRequest{
			Name: "sweep", User: "alice", Account: "lab-a", Partition: "cpu",
			ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, ArraySize: 3,
		})
		e.advance(time.Minute)
	}

	// Job 1000 is alice's first fixture job.
	fill := strings.NewReplacer("{name}", "c001", "{account}", "lab-a", "{id}", "1000")
	compared := 0
	for _, w := range cli.server.Widgets() {
		if w.TTL == 0 || !strings.Contains(w.DataSource, "(Slurm)") && !strings.Contains(w.DataSource, "(slurmdbd)") {
			continue
		}
		path := fill.Replace(w.Route[strings.IndexByte(w.Route, ' ')+1:])
		if w.Name == "job_array" {
			path = fmt.Sprintf("/api/job/%d/array", arrayID)
		}
		if q := backendQueries[w.Name]; q != "" {
			path += "?" + q
		}
		user := "alice"
		if strings.HasPrefix(path, "/api/admin/") {
			user = "staff"
		}
		cs, cb := cli.get(user, path)
		rs, rb := rest.get(user, path)
		if cs != http.StatusOK || rs != http.StatusOK {
			t.Errorf("%s (%s): status cli=%d rest=%d", path, w.Name, cs, rs)
			continue
		}
		if string(cb) != string(rb) {
			t.Errorf("%s: bodies differ\ncli:  %s\nrest: %s", path, cb, rb)
		}
		compared++
	}
	for name := range backendQueries {
		if cli.server.widget(name) == nil {
			t.Errorf("query for unknown widget %q", name)
		}
	}
	t.Logf("%d Slurm widget routes compared", compared)
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
