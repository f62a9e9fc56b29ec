package slurmrest

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/clock"
	"ooddash/internal/obs"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// restEnv is one simulated cluster with a REST server on top, tokens for a
// regular user (alice), a second user (bob), staff, and a service account,
// plus the CLI runner over the same cluster for equivalence checks.
type restEnv struct {
	cluster *slurm.Cluster
	clock   *clock.Sim
	runner  *slurmcli.SimRunner
	server  *Server
	tokens  *TokenStore
}

const (
	tokAlice = "tok-alice-1234"
	tokBob   = "tok-bob-5678"
	tokStaff = "tok-staff-9abc"
	tokSvc   = "tok-svc-def0"
)

func newRestEnv(t testing.TB, opts Options) *restEnv {
	t.Helper()
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cfg := slurm.ClusterConfig{
		Name: "testcluster",
		Nodes: []slurm.NodeSpec{
			{NamePrefix: "c", Count: 4, CPUs: 8, MemMB: 16 * 1024, Features: []string{"milan"}, Partitions: []string{"cpu"}},
			{NamePrefix: "g", Count: 1, CPUs: 16, MemMB: 64 * 1024, GPUs: 2, GPUType: "a100", Partitions: []string{"gpu"}},
		},
		Partitions: []slurm.PartitionSpec{
			{Name: "cpu", MaxTime: 24 * time.Hour, Default: true, Priority: 100},
			{Name: "gpu", MaxTime: 12 * time.Hour, Priority: 100},
		},
		QOS: []slurm.QOS{{Name: "normal"}},
		Associations: []slurm.Association{
			{Account: "lab-a"},
			{Account: "lab-a", User: "alice"},
			{Account: "lab-a", User: "bob"},
		},
	}
	cl, err := slurm.NewCluster(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}

	dir := auth.NewDirectory()
	dir.AddUser(auth.User{Name: "alice", Accounts: []string{"lab-a"}})
	dir.AddUser(auth.User{Name: "bob", Accounts: []string{"lab-a"}})
	dir.AddUser(auth.User{Name: "staff", Accounts: []string{"lab-a"}, Admin: true})
	ts := NewTokenStore(dir)
	for tok, name := range map[string]string{tokAlice: "alice", tokBob: "bob", tokStaff: "staff"} {
		if err := ts.IssueUser(tok, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.IssueService(tokSvc, "prometheus"); err != nil {
		t.Fatal(err)
	}

	return &restEnv{
		cluster: cl,
		clock:   clock,
		runner:  slurmcli.NewSimRunner(cl),
		server:  NewServer(cl, ts, opts),
		tokens:  ts,
	}
}

// seedJobs gives alice and bob running and completed work, including an
// interactive-app job so comment redaction has something to hide.
func (e *restEnv) seedJobs(t testing.TB) {
	t.Helper()
	submit := func(req slurm.SubmitRequest) slurm.JobID {
		if req.QOS == "" {
			req.QOS = "normal"
		}
		if req.TimeLimit == 0 {
			req.TimeLimit = 2 * time.Hour
		}
		if req.Profile.CPUUtilization == 0 {
			req.Profile = slurm.UsageProfile{CPUUtilization: 0.8, MemUtilization: 0.5, GPUUtilization: 0.7}
		}
		id, err := e.cluster.Ctl.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit(slurm.SubmitRequest{Name: "alice-train", User: "alice", Account: "lab-a",
		Partition: "cpu", ReqTRES: slurm.TRES{Nodes: 1, CPUs: 4, MemMB: 4 * 1024},
		WorkDir: "/home/alice/train", StdoutPath: "/home/alice/train/out.log"})
	submit(slurm.SubmitRequest{Name: "bob-secret", User: "bob", Account: "lab-a",
		Partition: "cpu", ReqTRES: slurm.TRES{Nodes: 1, CPUs: 2, MemMB: 2 * 1024},
		WorkDir: "/home/bob/secret", InteractiveApp: "jupyter", SessionID: "s-42"})
	submit(slurm.SubmitRequest{Name: "bob-short", User: "bob", Account: "lab-a",
		Partition: "cpu", ReqTRES: slurm.TRES{Nodes: 1, CPUs: 1, MemMB: 1024},
		TimeLimit: 30 * time.Minute})
	e.cluster.Ctl.Tick()
	e.clock.Advance(45 * time.Minute)
	e.cluster.Ctl.Tick()
	// Queue pressure: an oversized pending job.
	submit(slurm.SubmitRequest{Name: "alice-wide", User: "alice", Account: "lab-a",
		Partition: "cpu", ReqTRES: slurm.TRES{Nodes: 4, CPUs: 32, MemMB: 32 * 1024}})
	e.cluster.Ctl.Tick()
}

// get performs one request against h with the given token.
func get(h http.Handler, token, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// get performs one request against the server with the given token.
func (e *restEnv) get(token, path string) *httptest.ResponseRecorder {
	return get(e.server, token, path)
}

// Principals names the tokens the scope and redaction checks probe a REST
// server with. UserToken belongs to User; StaffToken sees everything.
type Principals struct {
	User, UserToken, StaffToken, ServiceToken string
}

var alice = Principals{User: "alice", UserToken: tokAlice, StaffToken: tokStaff, ServiceToken: tokSvc}

// getJSON performs one request against h with token and decodes a 200 body
// into out.
func getJSON(t *testing.T, h http.Handler, token, path string, out any) int {
	t.Helper()
	rec := get(h, token, path)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return rec.Code
}

// CheckScopeMatrix pins the endpoint-level permission table on h. The
// external test package runs it over workload stacks too.
func CheckScopeMatrix(t *testing.T, h http.Handler, p Principals) {
	t.Helper()
	cases := []struct {
		token string
		path  string
		want  int
	}{
		{p.StaffToken, "/slurm/v1/jobs", http.StatusOK},
		{p.StaffToken, "/slurm/v1/accounting", http.StatusOK},
		{p.StaffToken, "/slurm/v1/diag", http.StatusOK},
		{p.UserToken, "/slurm/v1/jobs", http.StatusOK},
		{p.UserToken, "/slurm/v1/accounting", http.StatusOK},
		{p.UserToken, "/slurm/v1/nodes", http.StatusOK},
		{p.UserToken, "/slurm/v1/partitions", http.StatusOK},
		{p.UserToken, "/slurm/v1/diag", http.StatusForbidden},
		{p.ServiceToken, "/slurm/v1/nodes", http.StatusOK},
		{p.ServiceToken, "/slurm/v1/partitions", http.StatusOK},
		{p.ServiceToken, "/slurm/v1/diag", http.StatusOK},
		{p.ServiceToken, "/slurm/v1/jobs", http.StatusForbidden},
		{p.ServiceToken, "/slurm/v1/accounting", http.StatusForbidden},
		{"", "/slurm/v1/jobs", http.StatusUnauthorized},
		{"bogus-token", "/slurm/v1/jobs", http.StatusUnauthorized},
	}
	for _, c := range cases {
		if got := getJSON(t, h, c.token, c.path, nil); got != c.want {
			t.Errorf("token %q %s: status %d, want %d", c.token, c.path, got, c.want)
		}
	}
}

// TestScopeMatrix pins the endpoint-level permission table and checks the
// denials show up in the server's metrics — the audit trail for scoped
// tokens.
func TestScopeMatrix(t *testing.T) {
	e := newRestEnv(t, Options{})
	e.seedJobs(t)
	CheckScopeMatrix(t, e.server, alice)

	st := e.server.Stats()
	if got := st.ScopeDenied[[2]string{"accounting", "service"}]; got != 1 {
		t.Errorf("scope_denied{accounting,service} = %d, want 1", got)
	}
	if got := st.ScopeDenied[[2]string{"jobs", "service"}]; got != 1 {
		t.Errorf("scope_denied{jobs,service} = %d, want 1", got)
	}
	if got := st.ScopeDenied[[2]string{"diag", "user"}]; got != 1 {
		t.Errorf("scope_denied{diag,user} = %d, want 1", got)
	}

	// The same counters must surface on an obs registry.
	reg := obs.NewRegistry()
	e.server.RegisterMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`ooddash_slurmrest_scope_denied_total{endpoint="accounting",kind="service"} 1`,
		`ooddash_slurmrest_scope_denied_total{endpoint="diag",kind="user"} 1`,
		`ooddash_slurmrest_requests_total{endpoint="jobs",status="403"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// CheckUserRedaction pins field-level scopes on h: p.User's token sees its
// own jobs in full and every other user's with identifying fields hidden,
// on the live queue and in accounting, while the staff token sees nothing
// redacted. Both views must hold own and other users' jobs. The external
// test package runs it over workload stacks too.
func CheckUserRedaction(t *testing.T, h http.Handler, p Principals) {
	t.Helper()
	var queue, staffQueue JobsResponse
	var acct, staffAcct AccountingResponse
	for _, q := range []struct {
		token, path string
		out         any
	}{
		{p.UserToken, "/slurm/v1/jobs?all_states=1", &queue},
		{p.UserToken, "/slurm/v1/accounting", &acct},
		{p.StaffToken, "/slurm/v1/jobs?all_states=1", &staffQueue},
		{p.StaffToken, "/slurm/v1/accounting", &staffAcct},
	} {
		if code := getJSON(t, h, q.token, q.path, q.out); code != http.StatusOK {
			t.Fatalf("%s: status %d", q.path, code)
		}
	}

	var own, others int
	for _, j := range queue.Jobs {
		if j.User == p.User {
			own++
			if j.Redacted || j.Name == "" {
				t.Errorf("%s's own job %s redacted: %+v", p.User, j.JobID, j)
			}
		} else {
			others++
			if !j.Redacted || j.Name != "" {
				t.Errorf("job %s of user %s not redacted for %s: %+v", j.JobID, j.User, p.User, j)
			}
		}
	}
	if own == 0 || others == 0 {
		t.Fatalf("queue holds %d own and %d other users' jobs; the check needs both", own, others)
	}
	own, others = 0, 0
	for _, j := range acct.Jobs {
		if j.User == p.User {
			own++
			if j.Redacted || j.Name == "" {
				t.Errorf("%s's own accounting row redacted: %+v", p.User, j)
			}
		} else {
			others++
			if !j.Redacted || j.Name != "" || j.Comment != "" || j.WorkDir != "" {
				t.Errorf("%s's accounting row not redacted for %s: %+v", j.User, p.User, j)
			}
		}
	}
	if own == 0 || others == 0 {
		t.Fatalf("accounting holds %d own and %d other users' jobs; the check needs both", own, others)
	}

	for _, j := range staffQueue.Jobs {
		if j.Redacted {
			t.Errorf("staff queue redacted job %s", j.JobID)
		}
	}
	for _, j := range staffAcct.Jobs {
		if j.Redacted {
			t.Errorf("staff view redacted row: %+v", j)
		}
	}
}

// TestUserRedaction pins field-level scopes: a user token sees its own jobs
// in full and other users' records with identifying fields hidden, while a
// staff token sees everything — and the redactions are counted.
func TestUserRedaction(t *testing.T) {
	e := newRestEnv(t, Options{})
	e.seedJobs(t)
	CheckUserRedaction(t, e.server, alice)

	// Job detail: find bob's interactive job via staff, then fetch as alice.
	var staffAcct AccountingResponse
	if err := json.Unmarshal(e.get(tokStaff, "/slurm/v1/accounting").Body.Bytes(), &staffAcct); err != nil {
		t.Fatal(err)
	}
	bobJob := ""
	for _, j := range staffAcct.Jobs {
		if j.User == "bob" && j.Comment != "" {
			bobJob = j.JobID
		}
	}
	if bobJob == "" {
		t.Fatal("staff view missing bob's interactive job comment")
	}
	var detail JobDetail
	if err := json.Unmarshal(e.get(tokAlice, "/slurm/v1/jobs/"+bobJob).Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if !detail.Redacted || detail.Name != "" || detail.WorkDir != "" || detail.Comment != "" {
		t.Errorf("bob's job detail not redacted for alice: %+v", detail)
	}

	st := e.server.Stats()
	if st.Redacted["accounting"] == 0 || st.Redacted["jobs"] == 0 || st.Redacted["job"] == 0 {
		t.Errorf("redaction counters not incremented: %+v", st.Redacted)
	}
}

// BackendOp is one query of the backend-swap contract; both sides return
// comparable rows.
type BackendOp struct {
	Name string
	CLI  func() (any, error)
	REST func(*Client) (any, error)
}

// BackendOps is the query mix the backend-swap contract and the external
// test package's REST/CLI latency gate run: the live queue in all states,
// accounting over window, partitions and nodes.
func BackendOps(runner slurmcli.Runner, window slurmcli.SacctOptions) []BackendOp {
	ctx := context.Background()
	all := slurmcli.SqueueOptions{AllStates: true}
	return []BackendOp{
		{"jobs",
			func() (any, error) { return slurmcli.Squeue(runner, all) },
			func(c *Client) (any, error) { return c.Squeue(ctx, all) }},
		{"accounting",
			func() (any, error) { return slurmcli.Sacct(runner, window) },
			func(c *Client) (any, error) { return c.Sacct(ctx, window) }},
		{"partitions",
			func() (any, error) { return slurmcli.Sinfo(runner) },
			func(c *Client) (any, error) { return c.Sinfo(ctx) }},
		{"nodes",
			func() (any, error) { return slurmcli.ShowAllNodes(runner) },
			func(c *Client) (any, error) { return c.ShowAllNodes(ctx) }},
	}
}

// CheckRowsMatch requires rc to return rows DeepEqual to the CLI parsers'
// over runner for every BackendOps query, on a first call and on a second
// one: each decodes the body it got, so a decoder that carried anything
// from one call to the next would show. The external test package runs it
// over workload stacks too.
func CheckRowsMatch(t *testing.T, runner slurmcli.Runner, rc *Client, window slurmcli.SacctOptions) {
	t.Helper()
	for _, op := range BackendOps(runner, window) {
		want, err := op.CLI()
		if err != nil {
			t.Fatalf("%s/cli: %v", op.Name, err)
		}
		for _, pass := range []string{"first call", "second call"} {
			got, err := op.REST(rc)
			if err != nil {
				t.Fatalf("%s/rest (%s): %v", op.Name, pass, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s rows differ (%s):\ncli:  %+v\nrest: %+v", op.Name, pass, want, got)
			}
		}
	}
}

// TestRowEquivalence is the backend-swap contract: for a staff viewer the
// REST client must produce byte-identical typed rows to the CLI wrappers
// over the same cluster state.
func TestRowEquivalence(t *testing.T) {
	e := newRestEnv(t, Options{})
	e.seedJobs(t)
	rc := NewClient(e.server, tokStaff)
	ctx := context.Background()

	sOpts := slurmcli.SacctOptions{AllUsers: true}
	CheckRowsMatch(t, e.runner, rc, sOpts)

	cliAcct, err := slurmcli.Sacct(e.runner, sOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cliAcct) == 0 {
		t.Fatal("no accounting rows to compare")
	}
	for _, row := range cliAcct {
		cliJob, err := slurmcli.ShowJob(e.runner, row.RawID)
		if err != nil {
			t.Fatal(err)
		}
		restJob, err := rc.ShowJob(ctx, row.RawID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cliJob, restJob) {
			t.Errorf("job %d detail differs:\ncli:  %+v\nrest: %+v", row.RawID, cliJob, restJob)
		}
	}

	// sdiag mutates the RPC counters it reports, so only the stable parts
	// are comparable: daemon names and record counts.
	restCtld, restDbd, err := rc.Sdiag(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cliCtld, cliDbd, err := slurmcli.Sdiag(e.runner)
	if err != nil {
		t.Fatal(err)
	}
	if restCtld.Name != cliCtld.Name || restCtld.Records != cliCtld.Records {
		t.Errorf("ctld diag differs: rest %+v cli %+v", restCtld, cliCtld)
	}
	if restDbd.Name != cliDbd.Name || restDbd.Records != cliDbd.Records {
		t.Errorf("dbd diag differs: rest %+v cli %+v", restDbd, cliDbd)
	}
}

// TestUnavailableMapsTo503AndBack pins the outage contract end to end: a
// down daemon yields 503 + Retry-After on the wire, and the client maps it
// back to the same unavailability class the CLI path reports.
func TestUnavailableMapsTo503AndBack(t *testing.T) {
	e := newRestEnv(t, Options{})
	e.seedJobs(t)
	e.cluster.Ctl.SetHealth(slurm.HealthDown, "drill")

	rec := e.get(tokStaff, "/slurm/v1/jobs")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	rc := NewClient(e.server, tokStaff)
	_, err := rc.Squeue(context.Background(), slurmcli.SqueueOptions{})
	if err == nil || !slurmcli.IsUnavailable(err) {
		t.Fatalf("client error %v not classified unavailable", err)
	}

	// The accounting daemon is untouched; its endpoint still serves.
	if rec := e.get(tokStaff, "/slurm/v1/accounting"); rec.Code != http.StatusOK {
		t.Errorf("accounting during ctld outage: status %d", rec.Code)
	}
}

// TestObserveHook pins the client's metering seam: one call per request
// with the slurmcli-compatible daemon attribution.
func TestObserveHook(t *testing.T) {
	e := newRestEnv(t, Options{})
	e.seedJobs(t)
	type call struct {
		endpoint, daemon string
		err              bool
	}
	var calls []call
	rc := NewClient(e.server, tokSvc)
	rc.Observe = func(endpoint, daemon string, d time.Duration, err error) {
		calls = append(calls, call{endpoint, daemon, err != nil})
	}
	ctx := context.Background()
	if _, err := rc.Sinfo(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Sacct(ctx, slurmcli.SacctOptions{}); err == nil {
		t.Fatal("service token sacct should fail")
	}
	want := []call{
		{"partitions", "slurmctld", false},
		{"accounting", "slurmdbd", true},
	}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("observe calls %+v, want %+v", calls, want)
	}
}
