package slurm

import (
	"testing"
	"time"

	"ooddash/internal/clock"
)

func seedHistory(t *testing.T) (*Cluster, *clock.Sim) {
	t.Helper()
	cl, clock := testCluster(t)
	// alice: 3 completed 10-minute jobs, one per 30 minutes.
	for i := 0; i < 3; i++ {
		submitOne(t, cl, SubmitRequest{
			Name: "alice-batch", User: "alice", Account: "lab-a", Partition: "cpu",
			ReqTRES: TRES{CPUs: 2, MemMB: 1024},
			Profile: UsageProfile{ActualDuration: 10 * time.Minute, CPUUtilization: 0.9, MemUtilization: 0.5},
		})
		cl.Ctl.Tick()
		clock.Advance(30 * time.Minute)
		cl.Ctl.Tick()
	}
	// carol: one failed job.
	submitOne(t, cl, SubmitRequest{
		Name: "carol-fail", User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: 2 * time.Minute, FailureState: StateFailed, ExitCode: 1,
			CPUUtilization: 0.2, MemUtilization: 0.1},
	})
	cl.Ctl.Tick()
	clock.Advance(5 * time.Minute)
	cl.Ctl.Tick()
	return cl, clock
}

func TestDBDFilterByUser(t *testing.T) {
	cl, _ := seedHistory(t)
	now := cl.Ctl.Now()
	jobs := cl.DBD.Jobs(JobFilter{Users: []string{"alice"}}, now)
	if len(jobs) != 3 {
		t.Fatalf("alice jobs = %d, want 3", len(jobs))
	}
	for _, j := range jobs {
		if j.User != "alice" {
			t.Fatalf("leaked job for %s", j.User)
		}
	}
}

func TestDBDFilterByState(t *testing.T) {
	cl, _ := seedHistory(t)
	now := cl.Ctl.Now()
	failed := cl.DBD.Jobs(JobFilter{States: []JobState{StateFailed}}, now)
	if len(failed) != 1 || failed[0].User != "carol" {
		t.Fatalf("failed jobs = %+v", failed)
	}
}

func TestDBDFilterByAccount(t *testing.T) {
	cl, _ := seedHistory(t)
	now := cl.Ctl.Now()
	jobs := cl.DBD.Jobs(JobFilter{Accounts: []string{"lab-b"}}, now)
	if len(jobs) != 1 || jobs[0].Account != "lab-b" {
		t.Fatalf("lab-b jobs = %+v", jobs)
	}
}

func TestDBDTimeWindowOverlap(t *testing.T) {
	cl, clock := seedHistory(t)
	now := clock.Now()
	// A window covering only the last 10 minutes should catch only carol's
	// recent failure, not alice's old jobs.
	recent := cl.DBD.Jobs(JobFilter{Start: now.Add(-10 * time.Minute), End: now}, now)
	if len(recent) != 1 || recent[0].User != "carol" {
		t.Fatalf("recent window = %+v", jobsSummary(recent))
	}
	// A window covering everything returns all 4.
	all := cl.DBD.Jobs(JobFilter{Start: now.Add(-24 * time.Hour), End: now}, now)
	if len(all) != 4 {
		t.Fatalf("full window = %d, want 4", len(all))
	}
	// A window before all submissions returns nothing.
	none := cl.DBD.Jobs(JobFilter{Start: now.Add(-48 * time.Hour), End: now.Add(-24 * time.Hour)}, now)
	if len(none) != 0 {
		t.Fatalf("old window = %d, want 0", len(none))
	}
}

func jobsSummary(jobs []*Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.User + "/" + string(j.State)
	}
	return out
}

func TestDBDLimitReturnsNewestFirst(t *testing.T) {
	cl, _ := seedHistory(t)
	now := cl.Ctl.Now()
	jobs := cl.DBD.Jobs(JobFilter{Limit: 2}, now)
	if len(jobs) != 2 {
		t.Fatalf("limited jobs = %d, want 2", len(jobs))
	}
	if !jobs[0].SubmitTime.After(jobs[1].SubmitTime) && !jobs[0].SubmitTime.Equal(jobs[1].SubmitTime) {
		t.Fatalf("limit results not newest-first: %v then %v", jobs[0].SubmitTime, jobs[1].SubmitTime)
	}
}

func TestDBDOrderAscendingWithoutLimit(t *testing.T) {
	cl, _ := seedHistory(t)
	now := cl.Ctl.Now()
	jobs := cl.DBD.Jobs(JobFilter{}, now)
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitTime.Before(jobs[i-1].SubmitTime) {
			t.Fatalf("jobs out of submit order at %d", i)
		}
	}
}

func TestDBDUnknownJob(t *testing.T) {
	cl, _ := testCluster(t)
	if j := cl.DBD.Job(99999); j != nil {
		t.Fatalf("unknown job = %+v, want nil", j)
	}
}

func TestDBDAssociationsSorted(t *testing.T) {
	cl, _ := testCluster(t)
	assocs := cl.DBD.Associations()
	if len(assocs) != 5 {
		t.Fatalf("assocs = %d, want 5", len(assocs))
	}
	for i := 1; i < len(assocs); i++ {
		a, b := assocs[i-1], assocs[i]
		if a.Account > b.Account || (a.Account == b.Account && a.User > b.User) {
			t.Fatalf("associations unsorted at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestDBDChargesBothUserAndAccount(t *testing.T) {
	cl, clock := testCluster(t)
	submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 4, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1.0, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	clock.Advance(61 * time.Minute)
	cl.Ctl.Tick()
	userAssoc := cl.DBD.Association(AssocKey{Account: "lab-a", User: "alice"})
	acctAssoc := cl.DBD.Association(AssocKey{Account: "lab-a"})
	// 4 CPUs x 1 hour x 1.0 utilization = 4 core-hours on both levels.
	for _, a := range []*Association{userAssoc, acctAssoc} {
		if a == nil || a.CPUTimeUsed < 3.99 || a.CPUTimeUsed > 4.01 {
			t.Fatalf("association usage = %+v, want ~4 core-hours", a)
		}
	}
}
