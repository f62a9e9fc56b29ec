package slurm

import (
	"strings"
	"testing"
	"time"

	"ooddash/internal/clock"
)

// preemptCluster builds a cluster with a preemptable standby tier sharing
// nodes with the normal partition.
func preemptCluster(t *testing.T) (*Cluster, *clock.Sim) {
	t.Helper()
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cfg := ClusterConfig{
		Name: "preempt-test",
		Nodes: []NodeSpec{
			{NamePrefix: "c", Count: 2, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"cpu", "standby"}},
		},
		Partitions: []PartitionSpec{
			{Name: "cpu", MaxTime: 24 * time.Hour, Default: true, Priority: 100},
			{Name: "standby", MaxTime: 4 * time.Hour, Priority: 0},
		},
		QOS: []QOS{
			{Name: "normal"},
			{Name: "standby", Priority: -500, Preemptable: true},
		},
		Associations: []Association{
			{Account: "lab"},
			{Account: "lab", User: "alice"},
			{Account: "lab", User: "bob"},
		},
	}
	cl, err := NewCluster(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	return cl, clock
}

func TestPreemptionRequeuesStandbyJobs(t *testing.T) {
	cl, _ := preemptCluster(t)
	// Fill both nodes with standby work.
	var standby []JobID
	for i := 0; i < 2; i++ {
		id, err := cl.Ctl.Submit(SubmitRequest{
			Name: "standby-fill", User: "bob", Account: "lab", Partition: "standby", QOS: "standby",
			ReqTRES: TRES{CPUs: 8, MemMB: 1024}, TimeLimit: 4 * time.Hour,
			Profile: UsageProfile{ActualDuration: 3 * time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		standby = append(standby, id)
	}
	cl.Ctl.Tick()
	for _, id := range standby {
		if got := cl.Ctl.Job(id).State; got != StateRunning {
			t.Fatalf("standby job %d = %s", id, got)
		}
	}
	// A normal job needing one full node preempts exactly one standby job.
	normal, err := cl.Ctl.Submit(SubmitRequest{
		Name: "urgent", User: "alice", Account: "lab", Partition: "cpu", QOS: "normal",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024}, TimeLimit: time.Hour,
		Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(normal).State; got != StateRunning {
		t.Fatalf("normal job = %s, want RUNNING after preemption", got)
	}
	requeued := 0
	for _, id := range standby {
		j := cl.Ctl.Job(id)
		switch j.State {
		case StatePending:
			requeued++
			if !j.StartTime.IsZero() || j.AllocTRES.CPUs != 0 || len(j.Nodes) != 0 {
				t.Fatalf("requeued job retains allocation: %+v", j)
			}
		case StateRunning:
		default:
			t.Fatalf("standby job %d = %s", id, j.State)
		}
	}
	if requeued != 1 {
		t.Fatalf("requeued standby jobs = %d, want exactly 1", requeued)
	}
	// The preemption appears on the event feed.
	found := false
	for _, e := range cl.Ctl.EventsSince(0, 0) {
		if e.Kind == EventPreempted {
			found = true
		}
	}
	if !found {
		t.Fatal("no preemption event emitted")
	}
}

func TestPreemptionNotTriggeredWhenInfeasible(t *testing.T) {
	cl, _ := preemptCluster(t)
	// Fill with NORMAL (non-preemptable) jobs.
	for i := 0; i < 2; i++ {
		_, err := cl.Ctl.Submit(SubmitRequest{
			User: "bob", Account: "lab", Partition: "cpu", QOS: "normal",
			ReqTRES: TRES{CPUs: 8, MemMB: 1024}, TimeLimit: 4 * time.Hour,
			Profile: UsageProfile{ActualDuration: 3 * time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cl.Ctl.Tick()
	blocked, err := cl.Ctl.Submit(SubmitRequest{
		User: "alice", Account: "lab", Partition: "cpu", QOS: "normal",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024}, TimeLimit: time.Hour,
		Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	j := cl.Ctl.Job(blocked)
	if j.State != StatePending || j.Reason != ReasonResources {
		t.Fatalf("job = %s/%s, want PENDING/Resources (nothing preemptable)", j.State, j.Reason)
	}
}

func TestStandbyJobCannotPreempt(t *testing.T) {
	cl, _ := preemptCluster(t)
	for i := 0; i < 2; i++ {
		if _, err := cl.Ctl.Submit(SubmitRequest{
			User: "bob", Account: "lab", Partition: "standby", QOS: "standby",
			ReqTRES: TRES{CPUs: 8, MemMB: 1024}, TimeLimit: 4 * time.Hour,
			Profile: UsageProfile{ActualDuration: 3 * time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Ctl.Tick()
	another, err := cl.Ctl.Submit(SubmitRequest{
		User: "alice", Account: "lab", Partition: "standby", QOS: "standby",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024}, TimeLimit: 4 * time.Hour,
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(another).State; got != StatePending {
		t.Fatalf("standby job preempted a peer: %s", got)
	}
}

func TestOOMKill(t *testing.T) {
	cl, clock := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:   TRES{CPUs: 2, MemMB: 1024},
		TimeLimit: time.Hour,
		Profile: UsageProfile{ActualDuration: 20 * time.Minute,
			CPUUtilization: 0.5, MemUtilization: 1.4}, // outgrows its request
	})
	cl.Ctl.Tick()
	clock.Advance(21 * time.Minute)
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StateOutOfMemory {
		t.Fatalf("state = %s, want OUT_OF_MEMORY", j.State)
	}
	if j.ExitCode == 0 {
		t.Fatal("OOM job should have nonzero exit code")
	}
	// Event feed carries the OOM.
	kinds := make(map[EventKind]int)
	for _, e := range cl.Ctl.EventsSince(0, 0) {
		kinds[e.Kind]++
	}
	if kinds[EventOOM] != 1 {
		t.Fatalf("events = %+v", kinds)
	}
}

func TestFairSharepenalizesHeavyAccounts(t *testing.T) {
	cl, clock := testCluster(t)
	// Make lab-b heavy: run and finish large jobs to accumulate usage
	// (4 x 8 CPUs x 23 h = 736 core-hours, a few fair-share points).
	for i := 0; i < 4; i++ {
		submitOne(t, cl, SubmitRequest{
			User: "carol", Account: "lab-b", Partition: "cpu",
			ReqTRES: TRES{CPUs: 8, MemMB: 1024}, TimeLimit: 24 * time.Hour,
			Profile: UsageProfile{ActualDuration: 23 * time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
		})
	}
	cl.Ctl.Tick()
	clock.Advance(24 * time.Hour)
	cl.Ctl.Tick()

	// Saturate the cluster, then queue one job from each account.
	for i := 0; i < 4; i++ {
		submitOne(t, cl, SubmitRequest{
			User: "carol", Account: "lab-b", Partition: "cpu",
			ReqTRES: TRES{CPUs: 8, MemMB: 1024},
			Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
		})
	}
	cl.Ctl.Tick()
	light := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	heavy := submitOne(t, cl, SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	jl, jh := cl.Ctl.Job(light), cl.Ctl.Job(heavy)
	if jl.Priority <= jh.Priority {
		t.Fatalf("light account priority %d not above heavy %d", jl.Priority, jh.Priority)
	}
}

func TestEventFeedLifecycle(t *testing.T) {
	cl, clock := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		Name: "evented", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: 10 * time.Minute, CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	clock.Advance(11 * time.Minute)
	cl.Ctl.Tick()

	events := cl.Ctl.EventsSince(0, 0)
	var kinds []EventKind
	for _, e := range events {
		if e.JobID == id {
			kinds = append(kinds, e.Kind)
		}
	}
	want := []EventKind{EventSubmitted, EventStarted, EventCompleted}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	// Sequence numbers strictly increase.
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("sequence not increasing at %d", i)
		}
	}
	// Delta polling: nothing new after the last sequence.
	if rest := cl.Ctl.EventsSince(cl.Ctl.LastEventSeq(), 0); len(rest) != 0 {
		t.Fatalf("delta poll returned %d events", len(rest))
	}
	// Partial polling picks up from the middle.
	mid := events[len(events)/2].Seq
	rest := cl.Ctl.EventsSince(mid, 0)
	if len(rest) != len(events)-(len(events)/2)-1 {
		t.Fatalf("mid poll = %d events", len(rest))
	}
}

func TestEventLogBounded(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.append(Event{Kind: EventSubmitted, JobID: JobID(i)})
	}
	all := l.since(0, 0)
	if len(all) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(all))
	}
	if all[0].Seq != 7 || all[3].Seq != 10 {
		t.Fatalf("ring window = %d..%d, want 7..10", all[0].Seq, all[3].Seq)
	}
	if got := l.since(0, 2); len(got) != 2 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

func TestEventCancelled(t *testing.T) {
	cl, _ := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	if err := cl.Ctl.Cancel(id, "alice"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range cl.Ctl.EventsSince(0, 0) {
		if e.JobID == id && e.Kind == EventCancelled {
			found = true
		}
	}
	if !found {
		t.Fatal("no cancelled event")
	}
}

func TestSuspendResumeStopsWallClock(t *testing.T) {
	cl, clock := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		Name: "pausable", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 2, MemMB: 1024}, TimeLimit: 2 * time.Hour,
		Profile: UsageProfile{ActualDuration: 30 * time.Minute,
			CPUUtilization: 1.0, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	clock.Advance(10 * time.Minute)
	cl.Ctl.Tick()

	if err := cl.Ctl.Suspend(id, "bob"); err == nil {
		t.Fatal("suspend by non-owner should fail")
	}
	if err := cl.Ctl.Suspend(id, "alice"); err != nil {
		t.Fatal(err)
	}
	j := cl.Ctl.Job(id)
	if j.State != StateSuspended {
		t.Fatalf("state = %s", j.State)
	}
	// Suspended jobs keep their allocation...
	if n := cl.Ctl.Node(j.Nodes[0]); n.Alloc.CPUs != 2 {
		t.Fatalf("allocation released during suspend: %+v", n.Alloc)
	}
	// ...and their wall clock stops: an hour of suspension later the job
	// has still only run 10 of its 30 minutes.
	clock.Advance(time.Hour)
	cl.Ctl.Tick()
	j = cl.Ctl.Job(id)
	if j.State != StateSuspended {
		t.Fatalf("suspended job completed: %s", j.State)
	}
	if got := j.Elapsed(clock.Now()); got != 10*time.Minute {
		t.Fatalf("elapsed during suspend = %v, want 10m", got)
	}

	if err := cl.Ctl.Resume(id, "alice"); err != nil {
		t.Fatal(err)
	}
	// 20 more minutes of run time finish the 30-minute job.
	clock.Advance(21 * time.Minute)
	cl.Ctl.Tick()
	j = cl.Ctl.Job(id)
	if j.State != StateCompleted {
		t.Fatalf("resumed job = %s, want COMPLETED", j.State)
	}
	if got := j.Elapsed(clock.Now()); got < 29*time.Minute || got > 31*time.Minute {
		t.Fatalf("final elapsed = %v, want ~30m", got)
	}
}

func TestSuspendStateErrors(t *testing.T) {
	cl, _ := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu", Hold: true,
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	if err := cl.Ctl.Suspend(id, "alice"); err == nil {
		t.Fatal("suspending a pending job should fail")
	}
	if err := cl.Ctl.Resume(id, "alice"); err == nil {
		t.Fatal("resuming a non-suspended job should fail")
	}
	if err := cl.Ctl.Suspend(99999, "root"); err == nil {
		t.Fatal("suspending unknown job should fail")
	}
}

func TestFeatureConstraintPlacement(t *testing.T) {
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cfg := ClusterConfig{
		Name: "features",
		Nodes: []NodeSpec{
			{NamePrefix: "old", Count: 2, CPUs: 8, MemMB: 16 * 1024,
				Features: []string{"skylake"}, Partitions: []string{"cpu"}},
			{NamePrefix: "new", Count: 2, CPUs: 8, MemMB: 16 * 1024,
				Features: []string{"milan", "avx2"}, Partitions: []string{"cpu"}},
		},
		Partitions:   []PartitionSpec{{Name: "cpu", MaxTime: 4 * time.Hour, Default: true}},
		QOS:          []QOS{{Name: "normal"}},
		Associations: []Association{{Account: "lab"}, {Account: "lab", User: "u"}},
	}
	cl, err := NewCluster(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	submitC := func(constraint string) JobID {
		id, err := cl.Ctl.Submit(SubmitRequest{
			Name: "c", User: "u", Account: "lab", Partition: "cpu", QOS: "normal",
			ReqTRES: TRES{CPUs: 1, MemMB: 512}, TimeLimit: time.Hour,
			Constraint: constraint,
			Profile:    UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 0.5, MemUtilization: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	milan := submitC("milan")
	both := submitC("milan,avx2")
	any := submitC("")
	// An unsatisfiable constraint is rejected at submit, like Slurm's
	// "Requested node configuration is not available".
	if _, err := cl.Ctl.Submit(SubmitRequest{
		Name: "c", User: "u", Account: "lab", Partition: "cpu", QOS: "normal",
		ReqTRES: TRES{CPUs: 1, MemMB: 512}, TimeLimit: time.Hour,
		Constraint: "h100",
		Profile:    UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 0.5, MemUtilization: 0.5},
	}); err == nil {
		t.Fatal("unsatisfiable constraint accepted")
	}
	cl.Ctl.Tick()

	for _, tc := range []struct {
		id     JobID
		prefix string
	}{{milan, "new"}, {both, "new"}} {
		j := cl.Ctl.Job(tc.id)
		if j.State != StateRunning {
			t.Fatalf("job %d = %s", tc.id, j.State)
		}
		if !strings.HasPrefix(j.Nodes[0], tc.prefix) {
			t.Fatalf("job %d placed on %v, want %s*", tc.id, j.Nodes, tc.prefix)
		}
	}
	if got := cl.Ctl.Job(any).State; got != StateRunning {
		t.Fatalf("unconstrained job = %s", got)
	}
}

func TestNodeHasFeatures(t *testing.T) {
	n := Node{Features: []string{"milan", "avx2", "a100"}}
	cases := []struct {
		constraint string
		want       bool
	}{
		{"", true},
		{"milan", true},
		{"milan,avx2", true},
		{"milan, avx2", true},
		{"h100", false},
		{"milan,h100", false},
	}
	for _, tc := range cases {
		if got := n.HasFeatures(tc.constraint); got != tc.want {
			t.Errorf("HasFeatures(%q) = %v, want %v", tc.constraint, got, tc.want)
		}
	}
}
