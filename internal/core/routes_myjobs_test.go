package core

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// seedMixedHistory creates a spread of jobs: completed, failed, pending,
// running, an interactive session, and a GPU job, across alice and bob.
func seedMixedHistory(e *env) {
	// alice: completed efficient batch job.
	e.submit(slurm.SubmitRequest{
		Name: "good-batch", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 4096}, TimeLimit: 2 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 90 * time.Minute,
			CPUUtilization: 0.9, MemUtilization: 0.8},
	})
	// alice: wasteful interactive jupyter session.
	e.submit(slurm.SubmitRequest{
		Name: "sys/dashboard/jupyter", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 16 * 1024}, TimeLimit: 8 * time.Hour,
		InteractiveApp: "jupyter", SessionID: "sess-42",
		Profile: slurm.UsageProfile{ActualDuration: 30 * time.Minute,
			CPUUtilization: 0.05, MemUtilization: 0.05},
	})
	// bob: failed job.
	e.submit(slurm.SubmitRequest{
		Name: "crashy", User: "bob", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 2048},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute,
			FailureState: slurm.StateFailed, ExitCode: 1,
			CPUUtilization: 0.4, MemUtilization: 0.3},
	})
	// bob: GPU job.
	e.submit(slurm.SubmitRequest{
		Name: "train", User: "bob", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 32 * 1024, GPUs: 2}, TimeLimit: 4 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 2 * time.Hour,
			CPUUtilization: 0.7, MemUtilization: 0.6, GPUUtilization: 0.9},
	})
	// Let everything finish.
	e.advance(3 * time.Hour)
	// alice: one still-running job, with some elapsed time on the clock.
	e.submit(slurm.SubmitRequest{
		Name: "still-going", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024}, TimeLimit: 6 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 5 * time.Hour,
			CPUUtilization: 0.8, MemUtilization: 0.5},
	})
	e.advance(15 * time.Minute)
}

func TestMyJobsTable(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h", &resp)
	// alice sees her own 3 jobs plus bob's lab-a job, not bob's lab-b job.
	if len(resp.Jobs) != 4 {
		names := make([]string, len(resp.Jobs))
		for i, j := range resp.Jobs {
			names[i] = j.Name + "/" + j.User
		}
		t.Fatalf("rows = %v", names)
	}
	byName := make(map[string]JobRow)
	for _, j := range resp.Jobs {
		byName[j.Name] = j
	}
	if _, ok := byName["train"]; ok {
		t.Fatal("alice sees bob's lab-b job")
	}
	good := byName["good-batch"]
	if good.State != "COMPLETED" || good.QOS != "normal" {
		t.Fatalf("good-batch = %+v", good)
	}
	if good.Efficiency.CPUPercent == nil || *good.Efficiency.CPUPercent < 89 || *good.Efficiency.CPUPercent > 91 {
		t.Fatalf("good-batch cpu eff = %+v", good.Efficiency.CPUPercent)
	}
	if good.Efficiency.TimePercent == nil || *good.Efficiency.TimePercent != 75 {
		t.Fatalf("good-batch time eff = %+v", good.Efficiency.TimePercent)
	}
	if len(good.Warnings) != 0 {
		t.Fatalf("good-batch warned: %+v", good.Warnings)
	}
	jup := byName["sys/dashboard/jupyter"]
	if len(jup.Warnings) == 0 {
		t.Fatal("wasteful jupyter job got no efficiency warnings")
	}
	if jup.App != "jupyter" || jup.SessionID != "sess-42" {
		t.Fatalf("session metadata = %q %q", jup.App, jup.SessionID)
	}
	running := byName["still-going"]
	if running.State != "RUNNING" || running.ElapsedSeconds <= 0 {
		t.Fatalf("running row = %+v", running)
	}
}

func TestMyJobsNewestFirst(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h", &resp)
	for i := 1; i < len(resp.Jobs); i++ {
		if resp.Jobs[i].SubmitTime.After(resp.Jobs[i-1].SubmitTime) {
			t.Fatalf("rows not newest-first at %d", i)
		}
	}
}

func TestMyJobsStateFilter(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp MyJobsResponse
	e.getJSON("bob", "/api/myjobs?range=24h&state=FAILED", &resp)
	if len(resp.Jobs) != 1 || resp.Jobs[0].Name != "crashy" {
		t.Fatalf("failed filter = %+v", resp.Jobs)
	}
	if resp.Total < 2 {
		t.Fatalf("total = %d, want unfiltered count", resp.Total)
	}
}

func TestMyJobsMineFilter(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h&mine=1", &resp)
	for _, j := range resp.Jobs {
		if j.User != "alice" {
			t.Fatalf("mine=1 leaked %s's job", j.User)
		}
	}
	if len(resp.Jobs) != 3 {
		t.Fatalf("alice's own jobs = %d, want 3", len(resp.Jobs))
	}
}

func TestMyJobsTimeRanges(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		Name: "ancient", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	e.advance(10 * 24 * time.Hour) // finish + age out of the 7d window
	e.submit(slurm.SubmitRequest{
		Name: "recent", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	e.advance(time.Hour)

	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=7d", &resp)
	if len(resp.Jobs) != 1 || resp.Jobs[0].Name != "recent" {
		t.Fatalf("7d rows = %+v", resp.Jobs)
	}
	e.getJSON("alice", "/api/myjobs?range=all", &resp)
	if len(resp.Jobs) != 2 {
		t.Fatalf("all rows = %d, want 2", len(resp.Jobs))
	}

	// Custom range covering only the first job.
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	endT := start.Add(24 * time.Hour)
	path := fmt.Sprintf("/api/myjobs?range=custom&from=%s&to=%s",
		start.Format(time.RFC3339), endT.Format(time.RFC3339))
	e.getJSON("alice", path, &resp)
	if len(resp.Jobs) != 1 || resp.Jobs[0].Name != "ancient" {
		t.Fatalf("custom rows = %+v", resp.Jobs)
	}
}

func TestMyJobsBadRange(t *testing.T) {
	e := newEnv(t)
	e.wantStatus("alice", "/api/myjobs?range=fortnight", 400)
	e.wantStatus("alice", "/api/myjobs?range=custom&from=bogus&to=2026-07-01T00:00:00Z", 400)
	e.wantStatus("alice", "/api/myjobs?range=custom&from=2026-07-02T00:00:00Z&to=2026-07-01T00:00:00Z", 400)
}

func TestMyJobsCharts(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp ChartsResponse
	e.getJSON("bob", "/api/myjobs/charts?range=24h", &resp)

	// bob's scope: lab-a (alice x3 + bob crashy) + lab-b (train).
	byUser := make(map[string]UserStateBar)
	for _, b := range resp.StateDistribution {
		byUser[b.User] = b
	}
	alice := byUser["alice"]
	if alice.Total != 3 || alice.States["COMPLETED"] != 2 || alice.States["RUNNING"] != 1 {
		t.Fatalf("alice bar = %+v", alice)
	}
	bob := byUser["bob"]
	if bob.Total != 2 || bob.States["FAILED"] != 1 {
		t.Fatalf("bob bar = %+v", bob)
	}

	// GPU hours: only bob's train job used GPUs (2 GPUs x 2h = 4 GPU-hours).
	if len(resp.GPUHours) != 1 || resp.GPUHours[0].User != "bob" {
		t.Fatalf("gpu chart = %+v", resp.GPUHours)
	}
	if h := resp.GPUHours[0].GPUHours; h < 3.99 || h > 4.01 {
		t.Fatalf("gpu hours = %v, want 4", h)
	}
}

func TestJobPerfAggregates(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp JobPerfResponse
	e.getJSON("alice", "/api/jobperf?range=24h", &resp)
	if resp.TotalJobs != 2 {
		t.Fatalf("total = %d, want 2 (alice's own finished jobs)", resp.TotalJobs)
	}
	if resp.CompletedJobs != 2 {
		t.Fatalf("completed = %d", resp.CompletedJobs)
	}
	// The rollup store aggregates jobs as they finish, so the still-running
	// job is excluded; wall = 90min + 30min from the finished two.
	if resp.TotalWallSeconds < 7200 {
		t.Fatalf("wall seconds = %d", resp.TotalWallSeconds)
	}
	if resp.MeanDurationSecs <= 0 {
		t.Fatalf("mean duration = %v", resp.MeanDurationSecs)
	}
	if resp.AvgCPUEfficiency <= 0 || resp.AvgCPUEfficiency > 100 {
		t.Fatalf("avg cpu eff = %v", resp.AvgCPUEfficiency)
	}
}

func TestJobPerfScopeIsOwnJobsOnly(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp JobPerfResponse
	e.getJSON("bob", "/api/jobperf?range=24h", &resp)
	if resp.TotalJobs != 2 {
		t.Fatalf("bob total = %d, want 2 (his own only)", resp.TotalJobs)
	}
	if resp.FailedJobs != 1 {
		t.Fatalf("bob failed = %d, want 1", resp.FailedJobs)
	}
	if h := resp.TotalGPUHours; h < 3.99 || h > 4.01 {
		t.Fatalf("bob gpu hours = %v", h)
	}
}

func TestJobPerfEmptyRange(t *testing.T) {
	e := newEnv(t)
	var resp JobPerfResponse
	e.getJSON("carol", "/api/jobperf?range=24h", &resp)
	if resp.TotalJobs != 0 || resp.AvgWaitSeconds != 0 {
		t.Fatalf("empty resp = %+v", resp)
	}
}

// sacctRecords counts the accounting records sacct returns to the
// dashboard, one per output line.
type sacctRecords struct {
	inner slurmcli.Runner
	n     atomic.Int64
}

func (c *sacctRecords) Run(name string, args ...string) (string, error) {
	out, err := c.inner.Run(name, args...)
	if name == "sacct" && err == nil && out != "" {
		c.n.Add(int64(strings.Count(strings.TrimRight(out, "\n"), "\n") + 1))
	}
	return out, err
}

// TestHistoryFillSharedByAccountSet: two users with the same account set,
// listed in either order, load every My Jobs view up to 30 days inside one
// TTL for one sacct, and that sacct returns no more records than the three
// direct windows it replaces would have.
func TestHistoryFillSharedByAccountSet(t *testing.T) {
	records := &sacctRecords{}
	e := newEnvWith(t, nil, func(r slurmcli.Runner) slurmcli.Runner {
		records.inner = r
		return records
	})
	e.users.AddUser(auth.User{Name: "dave", Accounts: []string{"lab-b", "lab-a"}})
	seedMixedHistory(e)
	asOf := e.clock.Now()
	rpcs := e.cluster.DBD.Stats().Count(slurm.RPCSacct)
	for _, user := range []string{"bob", "dave"} {
		for _, path := range []string{
			"/api/myjobs?range=24h", "/api/myjobs?range=7d", "/api/myjobs?range=30d",
			"/api/myjobs?range=7d&state=FAILED", "/api/myjobs/charts", "/api/myjobs/charts?range=30d",
			"/api/myjobs/export.csv?range=24h", "/api/myjobs/export.csv?range=30d&mine=1",
		} {
			e.wantStatus(user, path, http.StatusOK)
		}
		e.advance(30 * time.Second) // the key holds no instant
	}
	if got := e.cluster.DBD.Stats().Count(slurm.RPCSacct) - rpcs; got != 1 {
		t.Fatalf("sacct RPCs = %d, want 1 for both users and every view", got)
	}
	_, bob := e.get("bob", "/api/myjobs?range=7d")
	_, dave := e.get("dave", "/api/myjobs?range=7d")
	if string(bob) != string(dave) {
		t.Fatalf("same account set, different tables:\nbob:  %s\ndave: %s", bob, dave)
	}

	var direct int
	for _, span := range []time.Duration{24 * time.Hour, 7 * 24 * time.Hour, 30 * 24 * time.Hour} {
		rows, err := slurmcli.Sacct(records.inner, slurmcli.SacctOptions{
			Accounts: []string{"lab-a", "lab-b"}, AllUsers: true,
			Start: asOf.Add(-span), End: asOf,
		})
		if err != nil {
			t.Fatal(err)
		}
		direct += len(rows)
	}
	if got := records.n.Load(); got == 0 || got > int64(direct) {
		t.Fatalf("records returned = %d, want 1..%d (the three direct windows)", got, direct)
	}
}

// TestHistoryFillNeverCrossesAccountSets: after bob (lab-a, lab-b) fills,
// alice (lab-a) gets no lab-b row in any view, and carol (lab-b) no lab-a
// row: each account set has its own fill.
func TestHistoryFillNeverCrossesAccountSets(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	rpcs := e.cluster.DBD.Stats().Count(slurm.RPCSacct)
	for _, r := range []string{"24h", "7d", "30d"} {
		e.wantStatus("bob", "/api/myjobs?range="+r, http.StatusOK)
	}
	for _, tc := range []struct{ user, foreign string }{{"alice", "lab-b"}, {"carol", "lab-a"}} {
		for _, r := range []string{"24h", "7d", "30d"} {
			var resp MyJobsResponse
			e.getJSON(tc.user, "/api/myjobs?range="+r, &resp)
			for _, j := range resp.Jobs {
				if j.Account == tc.foreign {
					t.Fatalf("%s got %s row %s (%s) at %s", tc.user, tc.foreign, j.JobID, j.Name, r)
				}
			}
			_, csv := e.get(tc.user, "/api/myjobs/export.csv?range="+r)
			if strings.Contains(string(csv), ","+tc.foreign+",") {
				t.Fatalf("%s export holds %s rows at %s:\n%s", tc.user, tc.foreign, r, csv)
			}
		}
	}
	var charts ChartsResponse
	e.getJSON("alice", "/api/myjobs/charts?range=24h", &charts)
	if len(charts.GPUHours) != 0 { // bob's only GPU job ran in lab-b
		t.Fatalf("alice's charts hold lab-b GPU hours: %+v", charts.GPUHours)
	}
	if got := e.cluster.DBD.Stats().Count(slurm.RPCSacct) - rpcs; got != 3 {
		t.Fatalf("sacct RPCs = %d, want 3 (one fill per account set)", got)
	}
}

// TestHistoryFillFreshWithinTTL is the E9 staleness bound: a job submitted
// just after a fill shows up in every view once the fill's TTL has passed.
func TestHistoryFillFreshWithinTTL(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	e.wantStatus("alice", "/api/myjobs?range=24h", http.StatusOK)
	e.submit(slurm.SubmitRequest{
		Name: "late-arrival", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	e.advance(DefaultTTLs().JobHistory)
	for _, r := range []string{"24h", "7d", "30d"} {
		var resp MyJobsResponse
		e.getJSON("alice", "/api/myjobs?range="+r, &resp)
		found := false
		for _, j := range resp.Jobs {
			found = found || j.Name == "late-arrival"
		}
		if !found {
			t.Fatalf("job submitted after the fill missing from %s one TTL later", r)
		}
	}
}

// TestMyJobsExportMatchesJSONForEveryFilter: the CSV export and the JSON
// table apply one row filter, so for every filter they list the same jobs
// in the same order.
func TestMyJobsExportMatchesJSONForEveryFilter(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	for _, r := range []string{"24h", "30d"} {
		for _, filter := range []string{"", "&state=FAILED", "&state=completed", "&user=alice",
			"&user=bob", "&account=lab-a", "&account=lab-b", "&mine=1",
			"&user=alice&state=RUNNING", "&user=nobody"} {
			query := "?range=" + r + filter
			var resp MyJobsResponse
			e.getJSON("bob", "/api/myjobs"+query, &resp)
			_, body := e.get("bob", "/api/myjobs/export.csv"+query)
			lines := strings.Split(strings.TrimSpace(string(body)), "\n")[1:]
			if len(lines) != len(resp.Jobs) {
				t.Fatalf("%s: export %d rows, JSON %d", query, len(lines), len(resp.Jobs))
			}
			for i, line := range lines {
				if id, _, _ := strings.Cut(line, ","); id != resp.Jobs[i].JobID {
					t.Fatalf("%s row %d: export job %s, JSON job %s", query, i, id, resp.Jobs[i].JobID)
				}
			}
		}
	}
}

// FuzzParseTimeRange: every query either fails as a bad request or yields
// a window that is all time or starts before it ends, and that lies inside
// the window of the history fill serving it.
func FuzzParseTimeRange(f *testing.F) {
	for _, seed := range []string{
		"", "range=24h", "range=7d", "range=30d", "range=90d", "range=1y", "range=all",
		"range=fortnight",
		"range=custom&from=bogus&to=2026-07-01T00:00:00Z",
		"range=custom&from=2026-07-02T00:00:00Z&to=2026-07-01T00:00:00Z",
		"range=custom&from=2026-07-01T00:00:00.2Z&to=2026-07-01T00:00:00.9Z",
		"range=custom&from=2026-06-01T00:00:00Z&to=2026-07-01T02:00:00%2B02:00",
	} {
		f.Add(seed)
	}
	now := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, query string) {
		tr, err := parseTimeRange(&http.Request{URL: &url.URL{RawQuery: query}})
		if err != nil {
			if !errors.Is(err, errBadRequest) {
				t.Fatalf("%q: error %v is not a bad request", query, err)
			}
			return
		}
		start, end := tr.window(now)
		if !start.IsZero() && !start.Before(end) {
			t.Fatalf("%q: window [%v, %v] is empty", query, start, end)
		}
		cs, ce := tr.fillClass().window(now)
		if start.Before(cs) || end.After(ce) {
			t.Fatalf("%q: window [%v, %v] outside its fill class %q [%v, %v]",
				query, start, end, tr.fillClass().name, cs, ce)
		}
	})
}

func TestReasonHelpWording(t *testing.T) {
	if msg, ok := explainReason(slurm.ReasonAssocGrpCpuLimit); !ok ||
		!strings.Contains(msg, "aggregate group CPU limit") {
		t.Fatalf("explainReason = %q, %v", msg, ok)
	}
	if _, ok := explainReason(slurm.ReasonNone); ok {
		t.Fatal("ReasonNone should have no help text")
	}
}

func TestMyJobsPagination(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var page MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h&limit=2", &page)
	if len(page.Jobs) != 2 || page.Matched != 4 || page.Offset != 0 {
		t.Fatalf("page1 = %d rows matched %d offset %d", len(page.Jobs), page.Matched, page.Offset)
	}
	var page2 MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h&limit=2&offset=2", &page2)
	if len(page2.Jobs) != 2 || page2.Offset != 2 {
		t.Fatalf("page2 = %d rows offset %d", len(page2.Jobs), page2.Offset)
	}
	if page.Jobs[0].JobID == page2.Jobs[0].JobID {
		t.Fatal("pages overlap")
	}
	// Offset beyond the end yields an empty page, not an error.
	var empty MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h&offset=999", &empty)
	if len(empty.Jobs) != 0 {
		t.Fatalf("overflow page = %d rows", len(empty.Jobs))
	}
	e.wantStatus("alice", "/api/myjobs?limit=-1", 400)
	e.wantStatus("alice", "/api/myjobs?offset=x", 400)
}

func TestMyJobsExportCSV(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	status, body := e.get("alice", "/api/myjobs/export.csv?range=24h&mine=1")
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 4 { // header + alice's 3 jobs
		t.Fatalf("csv lines = %d:\n%s", len(lines), body)
	}
	if !strings.HasPrefix(lines[0], "job_id,name,user") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, ",alice,") {
			t.Fatalf("mine=1 leaked: %q", line)
		}
	}
	// State filter applies to the export too.
	status, body = e.get("bob", "/api/myjobs/export.csv?range=24h&state=FAILED")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	lines = strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "crashy") {
		t.Fatalf("failed filter:\n%s", body)
	}
}
