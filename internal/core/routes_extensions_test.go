package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"ooddash/internal/slurm"
)

func TestEventsFeedDeltaPolling(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "watched", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	var resp EventsResponse
	e.getJSON("alice", "/api/events", &resp)
	if len(resp.Events) != 2 { // submitted + started
		t.Fatalf("events = %+v", resp.Events)
	}
	if resp.Events[0].Kind != "submitted" || resp.Events[1].Kind != "started" {
		t.Fatalf("kinds = %s %s", resp.Events[0].Kind, resp.Events[1].Kind)
	}
	if resp.Events[0].JobID != jobIDStr(id) {
		t.Fatalf("job id = %s", resp.Events[0].JobID)
	}

	// Delta poll: nothing new yet.
	var delta EventsResponse
	e.getJSON("alice", fmt.Sprintf("/api/events?since=%d", resp.NextSeq), &delta)
	if len(delta.Events) != 0 {
		t.Fatalf("delta = %+v", delta.Events)
	}
	// Completion shows up on the next poll.
	e.advance(11 * time.Minute)
	e.getJSON("alice", fmt.Sprintf("/api/events?since=%d", resp.NextSeq), &delta)
	if len(delta.Events) != 1 || delta.Events[0].Kind != "completed" {
		t.Fatalf("delta = %+v", delta.Events)
	}
}

func TestEventsFeedPrivacyScope(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		Name: "carols-секрет", User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	var resp EventsResponse
	e.getJSON("alice", "/api/events", &resp)
	for _, ev := range resp.Events {
		if ev.User == "carol" {
			t.Fatalf("alice sees carol's event: %+v", ev)
		}
	}
	// bob shares lab-b and does see them; staff (admin) sees everything.
	e.getJSON("bob", "/api/events", &resp)
	if len(resp.Events) == 0 {
		t.Fatal("bob sees no group events")
	}
	e.getJSON("staff", "/api/events", &resp)
	if len(resp.Events) == 0 {
		t.Fatal("admin sees no events")
	}
}

func TestEventsBadParams(t *testing.T) {
	e := newEnv(t)
	e.wantStatus("alice", "/api/events?since=-1", 400)
	e.wantStatus("alice", "/api/events?since=x", 400)
	e.wantStatus("alice", "/api/events?limit=0", 400)
}

func TestInsightsDetectsPatterns(t *testing.T) {
	e := newEnv(t)
	// alice: repeated identical failures plus idle interactive sessions.
	for i := 0; i < 4; i++ {
		e.submit(slurm.SubmitRequest{
			Name: "train-model", User: "alice", Account: "lab-a", Partition: "cpu",
			ReqTRES: slurm.TRES{CPUs: 2, MemMB: 2048},
			Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute,
				FailureState: slurm.StateFailed, ExitCode: 137,
				CPUUtilization: 0.4, MemUtilization: 0.3},
		})
	}
	for i := 0; i < 4; i++ {
		e.submit(slurm.SubmitRequest{
			Name: "sys/dashboard/jupyter", User: "alice", Account: "lab-a", Partition: "cpu",
			ReqTRES: slurm.TRES{CPUs: 8, MemMB: 16 * 1024}, TimeLimit: 8 * time.Hour,
			InteractiveApp: "jupyter", SessionID: fmt.Sprintf("s%d", i),
			Profile: slurm.UsageProfile{ActualDuration: 30 * time.Minute,
				CPUUtilization: 0.05, MemUtilization: 0.05},
		})
	}
	e.advance(9 * time.Hour)

	var resp InsightsResponse
	e.getJSON("alice", "/api/insights?range=24h", &resp)
	if resp.JobCount != 8 {
		t.Fatalf("job count = %d", resp.JobCount)
	}
	kinds := make(map[string]bool)
	for _, f := range resp.Findings {
		kinds[f.Kind] = true
	}
	if !kinds["repeated-failures"] {
		t.Fatalf("missing repeated-failures: %+v", resp.Findings)
	}
	if !kinds["idle-interactive-sessions"] {
		t.Fatalf("missing idle-interactive-sessions: %+v", resp.Findings)
	}
	// Findings are ordered most severe first.
	if resp.Findings[0].Severity != "high" {
		t.Fatalf("first finding = %+v", resp.Findings[0])
	}
	if !strings.Contains(resp.Findings[0].Title, "137") {
		t.Fatalf("title = %q", resp.Findings[0].Title)
	}
}

func TestInsightsCleanHistory(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 2048}, TimeLimit: time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 50 * time.Minute,
			CPUUtilization: 0.9, MemUtilization: 0.8},
	})
	e.advance(time.Hour)
	var resp InsightsResponse
	e.getJSON("carol", "/api/insights?range=24h", &resp)
	if len(resp.Findings) != 0 {
		t.Fatalf("clean history produced findings: %+v", resp.Findings)
	}
}

func TestAdminOverview(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp AdminOverviewResponse
	e.getJSON("staff", "/api/jobperf?range=24h", &struct{}{}) // staff can use normal routes too
	e.getJSON("staff", "/api/admin/overview?range=24h", &resp)
	if resp.TotalJobs != 5 { // every job from every user
		t.Fatalf("total jobs = %d, want 5", resp.TotalJobs)
	}
	if len(resp.TopUsers) == 0 || resp.TotalCPUHours <= 0 {
		t.Fatalf("resp = %+v", resp)
	}
	// Ranked by CPU hours descending.
	for i := 1; i < len(resp.TopUsers); i++ {
		if resp.TopUsers[i].CPUHours > resp.TopUsers[i-1].CPUHours {
			t.Fatalf("top users unsorted: %+v", resp.TopUsers)
		}
	}
	if resp.StateCounts["FAILED"] != 1 {
		t.Fatalf("state counts = %+v", resp.StateCounts)
	}
}

// TestInsightsAndOverviewKeyedByRange: insights and the admin overview
// fill once per range per TTL however often they are viewed, report the
// fill's instant as range_end, and serve the default range under its
// canonical name, so ?range= and ?range=7d share one fill and one body.
func TestInsightsAndOverviewKeyedByRange(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	asOf := e.clock.Now()
	rpcs := e.cluster.DBD.Stats().Count(slurm.RPCSacct)
	_, def := e.get("alice", "/api/insights")
	e.advance(30 * time.Second)
	_, named := e.get("alice", "/api/insights?range=7d")
	if string(def) != string(named) {
		t.Fatalf("default and 7d insights differ:\n%s\n%s", def, named)
	}
	var ins InsightsResponse
	if err := json.Unmarshal(named, &ins); err != nil {
		t.Fatal(err)
	}
	if ins.Range != "7d" || !ins.RangeEnd.Equal(asOf) {
		t.Fatalf("insights range = %q ending %v, want 7d ending %v", ins.Range, ins.RangeEnd, asOf)
	}
	var first, second AdminOverviewResponse
	e.getJSON("staff", "/api/admin/overview?range=24h", &first)
	e.advance(30 * time.Second)
	e.getJSON("staff", "/api/admin/overview?range=24h", &second)
	if !first.RangeEnd.Equal(asOf.Add(30*time.Second)) || !second.RangeEnd.Equal(first.RangeEnd) {
		t.Fatalf("overview range_end = %v then %v, want the fill instant %v", first.RangeEnd, second.RangeEnd, asOf.Add(30*time.Second))
	}
	if got := e.cluster.DBD.Stats().Count(slurm.RPCSacct) - rpcs; got != 2 {
		t.Fatalf("sacct RPCs = %d, want 2 (one insights fill, one overview fill)", got)
	}
}

func TestAdminOverviewForbiddenForRegularUsers(t *testing.T) {
	e := newEnv(t)
	e.wantStatus("alice", "/api/admin/overview", 403)
	e.wantStatus("", "/api/admin/overview", 401)
}

func TestAdminCanViewAnyJobButNotLogs(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "private", User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES:    slurm.TRES{CPUs: 1, MemMB: 512},
		StdoutPath: "/home/carol/private.out",
		Profile:    slurm.UsageProfile{ActualDuration: time.Hour},
	})
	e.logs.Write("/home/carol/private.out", "secret\n")
	// Admin sees the job (permission-based accounting)...
	var ov JobOverviewResponse
	e.getJSON("staff", "/api/job/"+jobIDStr(id), &ov)
	if ov.User != "carol" {
		t.Fatalf("overview = %+v", ov)
	}
	// ...but logs still follow filesystem permissions (owner only).
	e.wantStatus("staff", "/api/job/"+jobIDStr(id)+"/logs", 403)
}

func TestGPUEfficiencyInMyJobs(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		Name: "gpu-idle", User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 32 * 1024, GPUs: 2}, TimeLimit: 4 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: time.Hour,
			CPUUtilization: 0.5, MemUtilization: 0.5, GPUUtilization: 0.1},
	})
	e.advance(90 * time.Minute)
	var resp MyJobsResponse
	e.getJSON("carol", "/api/myjobs?range=24h", &resp)
	if len(resp.Jobs) != 1 {
		t.Fatalf("rows = %d", len(resp.Jobs))
	}
	row := resp.Jobs[0]
	if row.Efficiency.GPUPercent == nil {
		t.Fatal("gpu efficiency missing")
	}
	if got := *row.Efficiency.GPUPercent; got < 9.9 || got > 10.1 {
		t.Fatalf("gpu%% = %v, want ~10", got)
	}
	// The §9 GPU warning fires for the idle GPUs.
	found := false
	for _, w := range row.Warnings {
		if strings.Contains(w, "GPU") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no GPU warning: %+v", row.Warnings)
	}
}

func TestEventsTailParam(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	var tail EventsResponse
	e.getJSON("alice", "/api/events?tail=1", &tail)
	if len(tail.Events) != 0 || tail.NextSeq == 0 {
		t.Fatalf("tail = %+v", tail)
	}
	// Nothing new yet from the head; the next transition appears.
	var delta EventsResponse
	e.getJSON("alice", fmt.Sprintf("/api/events?since=%d", tail.NextSeq), &delta)
	if len(delta.Events) != 0 {
		t.Fatalf("delta from head = %+v", delta.Events)
	}
	e.advance(11 * time.Minute)
	e.getJSON("alice", fmt.Sprintf("/api/events?since=%d", tail.NextSeq), &delta)
	if len(delta.Events) != 1 {
		t.Fatalf("delta = %+v", delta.Events)
	}
}

func TestInsightsPageServed(t *testing.T) {
	e := newEnv(t)
	status, body := e.get("alice", "/insights")
	if status != 200 || !strings.Contains(string(body), "/api/insights") {
		t.Fatalf("insights page: %d", status)
	}
	if !strings.Contains(string(body), "/insights") {
		t.Fatal("nav missing insights link")
	}
}
