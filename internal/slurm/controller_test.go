package slurm

import (
	"strings"
	"testing"
	"time"

	"ooddash/internal/clock"
)

// testCluster builds a small deterministic cluster: 4 CPU nodes (8 cores,
// 16 GiB each), 1 GPU node, two accounts with CPU limits, debug QOS with a
// per-user running-job cap.
func testCluster(t testing.TB) (*Cluster, *clock.Sim) {
	t.Helper()
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cfg := ClusterConfig{
		Name: "testcluster",
		Nodes: []NodeSpec{
			{NamePrefix: "c", Count: 4, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"cpu", "debug"}},
			{NamePrefix: "g", Count: 1, CPUs: 16, MemMB: 64 * 1024, GPUs: 2, GPUType: "a100", Partitions: []string{"gpu"}},
		},
		Partitions: []PartitionSpec{
			{Name: "cpu", MaxTime: 24 * time.Hour, Default: true, Priority: 100},
			{Name: "gpu", MaxTime: 12 * time.Hour, Priority: 100},
			{Name: "debug", MaxTime: 30 * time.Minute, Priority: 500},
		},
		QOS: []QOS{
			{Name: "normal"},
			{Name: "debug", Priority: 1000, MaxJobsPerUser: 1},
		},
		Associations: []Association{
			{Account: "lab-a", GrpCPULimit: 16},
			{Account: "lab-a", User: "alice"},
			{Account: "lab-a", User: "bob"},
			{Account: "lab-b"},
			{Account: "lab-b", User: "carol"},
		},
	}
	cl, err := NewCluster(cfg, clock)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl, clock
}

func submitOne(t testing.TB, cl *Cluster, req SubmitRequest) JobID {
	t.Helper()
	if req.Name == "" {
		req.Name = "job"
	}
	if req.QOS == "" {
		req.QOS = "normal"
	}
	if req.TimeLimit == 0 {
		req.TimeLimit = time.Hour
	}
	id, err := cl.Ctl.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return id
}

func TestSubmitAndSchedule(t *testing.T) {
	cl, _ := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 4, MemMB: 4096},
		Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 0.9, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j == nil {
		t.Fatal("job not found after submit")
	}
	if j.State != StateRunning {
		t.Fatalf("state = %s, want RUNNING", j.State)
	}
	if len(j.Nodes) != 1 || !strings.HasPrefix(j.Nodes[0], "c") {
		t.Fatalf("nodes = %v, want one cpu node", j.Nodes)
	}
	if j.AllocTRES.CPUs != 4 {
		t.Fatalf("alloc cpus = %d, want 4", j.AllocTRES.CPUs)
	}
	n := cl.Ctl.Node(j.Nodes[0])
	if n.Alloc.CPUs != 4 || len(n.RunningJobs) != 1 {
		t.Fatalf("node alloc = %+v jobs = %v", n.Alloc, n.RunningJobs)
	}
}

func TestJobCompletesAfterDuration(t *testing.T) {
	cl, clock := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 2, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: 10 * time.Minute, CPUUtilization: 0.8, MemUtilization: 0.4},
	})
	cl.Ctl.Tick()
	start := cl.Ctl.Job(id).StartTime

	clock.Advance(9 * time.Minute)
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(id).State; got != StateRunning {
		t.Fatalf("at 9min state = %s, want RUNNING", got)
	}
	clock.Advance(2 * time.Minute)
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StateCompleted {
		t.Fatalf("state = %s, want COMPLETED", j.State)
	}
	if want := start.Add(10 * time.Minute); !j.EndTime.Equal(want) {
		t.Fatalf("EndTime = %v, want exact %v", j.EndTime, want)
	}
	// Resources must be freed.
	for _, n := range cl.Ctl.Nodes() {
		if n.Alloc.CPUs != 0 {
			t.Fatalf("node %s still has alloc %+v", n.Name, n.Alloc)
		}
	}
	// Accounting must have the final record.
	rec := cl.DBD.Job(id)
	if rec == nil || rec.State != StateCompleted {
		t.Fatalf("dbd record = %+v", rec)
	}
}

func TestJobTimesOutAtLimit(t *testing.T) {
	cl, clock := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:   TRES{CPUs: 1, MemMB: 512},
		TimeLimit: 20 * time.Minute,
		Profile:   UsageProfile{ActualDuration: 0, CPUUtilization: 0.5, MemUtilization: 0.5}, // runs forever
	})
	cl.Ctl.Tick()
	clock.Advance(21 * time.Minute)
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StateTimeout {
		t.Fatalf("state = %s, want TIMEOUT", j.State)
	}
	if j.ExitCode == 0 {
		t.Fatal("timeout job should have nonzero exit code")
	}
}

func TestFailedJobState(t *testing.T) {
	cl, clock := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: 5 * time.Minute, FailureState: StateFailed, ExitCode: 2,
			CPUUtilization: 0.3, MemUtilization: 0.2},
	})
	cl.Ctl.Tick()
	clock.Advance(6 * time.Minute)
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StateFailed || j.ExitCode != 2 {
		t.Fatalf("state = %s exit = %d, want FAILED/2", j.State, j.ExitCode)
	}
}

func TestPendingReasonResourcesAndPriority(t *testing.T) {
	cl, _ := testCluster(t)
	// Fill the cpu partition: 4 nodes x 8 cpus, but account limit is 16,
	// so use lab-b (no limit) to saturate.
	for i := 0; i < 4; i++ {
		submitOne(t, cl, SubmitRequest{
			User: "carol", Account: "lab-b", Partition: "cpu",
			ReqTRES: TRES{CPUs: 8, MemMB: 1024},
			Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
		})
	}
	blocked1 := submitOne(t, cl, SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	blocked2 := submitOne(t, cl, SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	j1, j2 := cl.Ctl.Job(blocked1), cl.Ctl.Job(blocked2)
	if j1.State != StatePending || j1.Reason != ReasonResources {
		t.Fatalf("first blocked job: state=%s reason=%s, want PENDING/Resources", j1.State, j1.Reason)
	}
	if j2.State != StatePending || j2.Reason != ReasonPriority {
		t.Fatalf("second blocked job: state=%s reason=%s, want PENDING/Priority", j2.State, j2.Reason)
	}
}

func TestAssocGrpCpuLimit(t *testing.T) {
	cl, _ := testCluster(t)
	// lab-a has GrpCPULimit 16: two 8-cpu jobs run, the third hits the limit.
	var ids []JobID
	for i := 0; i < 3; i++ {
		ids = append(ids, submitOne(t, cl, SubmitRequest{
			User: "alice", Account: "lab-a", Partition: "cpu",
			ReqTRES: TRES{CPUs: 8, MemMB: 1024},
			Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
		}))
	}
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(ids[0]).State; got != StateRunning {
		t.Fatalf("job0 = %s", got)
	}
	if got := cl.Ctl.Job(ids[1]).State; got != StateRunning {
		t.Fatalf("job1 = %s", got)
	}
	j := cl.Ctl.Job(ids[2])
	if j.State != StatePending || j.Reason != ReasonAssocGrpCpuLimit {
		t.Fatalf("job2 state=%s reason=%s, want PENDING/AssocGrpCpuLimit", j.State, j.Reason)
	}
}

func TestQOSMaxJobsPerUser(t *testing.T) {
	cl, _ := testCluster(t)
	a := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "debug", QOS: "debug",
		ReqTRES: TRES{CPUs: 1, MemMB: 512}, TimeLimit: 20 * time.Minute,
		Profile: UsageProfile{ActualDuration: 15 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	b := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "debug", QOS: "debug",
		ReqTRES: TRES{CPUs: 1, MemMB: 512}, TimeLimit: 20 * time.Minute,
		Profile: UsageProfile{ActualDuration: 15 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(a).State; got != StateRunning {
		t.Fatalf("first debug job = %s", got)
	}
	j := cl.Ctl.Job(b)
	if j.State != StatePending || j.Reason != ReasonQOSMaxJobsPerUser {
		t.Fatalf("second debug job state=%s reason=%s", j.State, j.Reason)
	}
}

func TestDependencyChain(t *testing.T) {
	cl, clock := testCluster(t)
	first := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: 10 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	second := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu", Dependency: first,
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: 10 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	j := cl.Ctl.Job(second)
	if j.State != StatePending || j.Reason != ReasonDependency {
		t.Fatalf("dependent job state=%s reason=%s", j.State, j.Reason)
	}
	clock.Advance(11 * time.Minute)
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(second).State; got != StateRunning {
		t.Fatalf("dependent job after dep completes = %s", got)
	}
}

func TestBeginTimeGate(t *testing.T) {
	cl, clock := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		BeginTime: clock.Now().Add(30 * time.Minute),
		ReqTRES:   TRES{CPUs: 1, MemMB: 512},
		Profile:   UsageProfile{ActualDuration: 5 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StatePending || j.Reason != ReasonBeginTime {
		t.Fatalf("state=%s reason=%s, want PENDING/BeginTime", j.State, j.Reason)
	}
	clock.Advance(31 * time.Minute)
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(id).State; got != StateRunning {
		t.Fatalf("after begin time = %s", got)
	}
}

func TestHoldRelease(t *testing.T) {
	cl, _ := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu", Hold: true,
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: 5 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StatePending || j.Reason != ReasonJobHeldUser {
		t.Fatalf("held job state=%s reason=%s", j.State, j.Reason)
	}
	if err := cl.Ctl.Release(id, "bob"); err == nil {
		t.Fatal("release by non-owner should fail")
	}
	if err := cl.Ctl.Release(id, "alice"); err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(id).State; got != StateRunning {
		t.Fatalf("released job = %s", got)
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	cl, _ := testCluster(t)
	run := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	hold := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu", Hold: true,
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()

	if err := cl.Ctl.Cancel(run, "bob"); err == nil {
		t.Fatal("cancel by non-owner should fail")
	}
	if err := cl.Ctl.Cancel(run, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ctl.Cancel(hold, "root"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []JobID{run, hold} {
		if got := cl.Ctl.Job(id).State; got != StateCancelled {
			t.Fatalf("job %d = %s, want CANCELLED", id, got)
		}
	}
	for _, n := range cl.Ctl.Nodes() {
		if n.Alloc.CPUs != 0 {
			t.Fatalf("node %s alloc not freed: %+v", n.Name, n.Alloc)
		}
	}
}

func TestJobArraySubmit(t *testing.T) {
	cl, _ := testCluster(t)
	first, err := cl.Ctl.Submit(SubmitRequest{
		Name: "array", User: "alice", Account: "lab-a", Partition: "cpu", QOS: "normal",
		ReqTRES: TRES{CPUs: 1, MemMB: 512}, TimeLimit: time.Hour, ArraySize: 5,
		Profile: UsageProfile{ActualDuration: 5 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	tasks := cl.DBD.Jobs(JobFilter{ArrayJobID: first}, cl.Ctl.Now())
	if len(tasks) != 5 {
		t.Fatalf("array tasks = %d, want 5", len(tasks))
	}
	for i, task := range tasks {
		if task.ArrayJobID != first || task.ArrayTaskID != i {
			t.Fatalf("task %d: arrayJob=%d taskID=%d", i, task.ArrayJobID, task.ArrayTaskID)
		}
		if want := task.DisplayID(); !strings.Contains(want, "_") {
			t.Fatalf("array task display ID %q missing underscore", want)
		}
	}
}

func TestNodeDownFailsJobs(t *testing.T) {
	cl, _ := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	node := cl.Ctl.Job(id).Nodes[0]
	if err := cl.Ctl.SetNodeDown(node, "hardware fault"); err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StateNodeFail {
		t.Fatalf("job on downed node = %s, want NODE_FAIL", j.State)
	}
	n := cl.Ctl.Node(node)
	if n.EffectiveState() != NodeDown || n.StateReason != "hardware fault" {
		t.Fatalf("node state=%s reason=%q", n.EffectiveState(), n.StateReason)
	}
}

func TestDrainExcludesFromScheduling(t *testing.T) {
	cl, _ := testCluster(t)
	// Drain all but one node; the job must land on the remaining one.
	nodes := cl.Ctl.Nodes()
	var kept string
	for _, n := range nodes {
		if !n.HasPartition("cpu") {
			continue
		}
		if kept == "" {
			kept = n.Name
			continue
		}
		if err := cl.Ctl.DrainNode(n.Name, "maintenance prep"); err != nil {
			t.Fatal(err)
		}
	}
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StateRunning || j.Nodes[0] != kept {
		t.Fatalf("job state=%s nodes=%v, want running on %s", j.State, j.Nodes, kept)
	}
}

func TestMultiNodeJob(t *testing.T) {
	cl, _ := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 16, MemMB: 2048, Nodes: 2},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StateRunning || len(j.Nodes) != 2 {
		t.Fatalf("state=%s nodes=%v", j.State, j.Nodes)
	}
	if j.AllocTRES.CPUs != 16 || j.AllocTRES.Nodes != 2 {
		t.Fatalf("alloc = %+v", j.AllocTRES)
	}
	for _, name := range j.Nodes {
		if n := cl.Ctl.Node(name); n.Alloc.CPUs != 8 {
			t.Fatalf("node %s alloc = %+v, want 8 cpus", name, n.Alloc)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	cl, _ := testCluster(t)
	base := SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu", QOS: "normal",
		ReqTRES: TRES{CPUs: 1, MemMB: 512}, TimeLimit: time.Hour,
	}
	cases := []struct {
		name   string
		mutate func(*SubmitRequest)
	}{
		{"no user", func(r *SubmitRequest) { r.User = "" }},
		{"no account", func(r *SubmitRequest) { r.Account = "" }},
		{"no partition", func(r *SubmitRequest) { r.Partition = "" }},
		{"unknown partition", func(r *SubmitRequest) { r.Partition = "nope" }},
		{"unknown qos", func(r *SubmitRequest) { r.QOS = "nope" }},
		{"zero cpus", func(r *SubmitRequest) { r.ReqTRES.CPUs = 0 }},
		{"no time limit", func(r *SubmitRequest) { r.TimeLimit = 0 }},
		{"over partition limit", func(r *SubmitRequest) { r.TimeLimit = 48 * time.Hour }},
		{"no association", func(r *SubmitRequest) { r.User = "mallory" }},
	}
	for _, tc := range cases {
		req := base
		tc.mutate(&req)
		if _, err := cl.Ctl.Submit(req); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestCompletedJobPurgedFromControllerButNotDBD(t *testing.T) {
	cl, clock := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	clock.Advance(2 * time.Minute)
	cl.Ctl.Tick() // completes
	if cl.Ctl.Job(id) == nil {
		t.Fatal("freshly completed job should still be in controller memory")
	}
	clock.Advance(10 * time.Minute) // past 5-minute retention
	cl.Ctl.Tick()
	if cl.Ctl.Job(id) != nil {
		t.Fatal("completed job should have been purged from controller")
	}
	if rec := cl.DBD.Job(id); rec == nil || rec.State != StateCompleted {
		t.Fatalf("dbd record = %+v, want COMPLETED", rec)
	}
}

func TestUtilization(t *testing.T) {
	cl, _ := testCluster(t)
	submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	submitOne(t, cl, SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 8192, GPUs: 1},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	util := cl.Ctl.Utilization()
	byName := make(map[string]PartitionUtilization)
	for _, u := range util {
		byName[u.Name] = u
	}
	cpu := byName["cpu"]
	if cpu.TotalCPUs != 32 || cpu.AllocCPUs != 8 || cpu.RunningJobs != 1 {
		t.Fatalf("cpu util = %+v", cpu)
	}
	if got := cpu.CPUPercent(); got != 25 {
		t.Fatalf("cpu%% = %v, want 25", got)
	}
	gpu := byName["gpu"]
	if gpu.TotalGPUs != 2 || gpu.AllocGPUs != 1 {
		t.Fatalf("gpu util = %+v", gpu)
	}
	if got := gpu.GPUPercent(); got != 50 {
		t.Fatalf("gpu%% = %v, want 50", got)
	}
}

func TestLiveAccountUsage(t *testing.T) {
	cl, clock := testCluster(t)
	submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	submitOne(t, cl, SubmitRequest{
		User: "bob", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	// Third hits the 16-CPU group limit and queues.
	submitOne(t, cl, SubmitRequest{
		User: "bob", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 4, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	u := cl.Ctl.LiveAccountUsage("lab-a")
	if u.CPUsInUse != 16 || u.CPUsQueued != 4 || u.GrpCPULimit != 16 {
		t.Fatalf("usage = %+v", u)
	}
	if len(u.PerUser) != 2 {
		t.Fatalf("per-user rows = %d, want 2", len(u.PerUser))
	}

	// GPU hours accumulate into the association after a GPU job finishes.
	submitOne(t, cl, SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: TRES{CPUs: 4, MemMB: 8192, GPUs: 2},
		Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	clock.Advance(31 * time.Minute)
	cl.Ctl.Tick()
	ub := cl.Ctl.LiveAccountUsage("lab-b")
	if ub.GPUHoursUsed < 0.99 || ub.GPUHoursUsed > 1.01 { // 0.5h x 2 GPUs
		t.Fatalf("lab-b GPU hours = %v, want ~1.0", ub.GPUHoursUsed)
	}
}

func TestUserAccounts(t *testing.T) {
	cl, _ := testCluster(t)
	got := cl.Ctl.UserAccounts("alice")
	if len(got) != 1 || got[0] != "lab-a" {
		t.Fatalf("alice accounts = %v", got)
	}
	if got := cl.Ctl.UserAccounts("nobody"); len(got) != 0 {
		t.Fatalf("nobody accounts = %v", got)
	}
}

func TestPriorityAgeAndQOSOrdering(t *testing.T) {
	cl, clock := testCluster(t)
	// Saturate the cluster so both test jobs queue.
	for i := 0; i < 4; i++ {
		submitOne(t, cl, SubmitRequest{
			User: "carol", Account: "lab-b", Partition: "cpu",
			ReqTRES: TRES{CPUs: 8, MemMB: 1024},
			Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
		})
	}
	cl.Ctl.Tick()
	older := submitOne(t, cl, SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	clock.Advance(5 * time.Minute)
	newer := submitOne(t, cl, SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: TRES{CPUs: 8, MemMB: 1024},
		Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	jo, jn := cl.Ctl.Job(older), cl.Ctl.Job(newer)
	if jo.Priority <= jn.Priority {
		t.Fatalf("older job priority %d should exceed newer %d (age factor)", jo.Priority, jn.Priority)
	}
	// When capacity frees, the older job starts first.
	clock.Advance(26 * time.Minute)
	cl.Ctl.Tick()
	jo, jn = cl.Ctl.Job(older), cl.Ctl.Job(newer)
	if jo.State != StateRunning {
		t.Fatalf("older job = %s, want RUNNING", jo.State)
	}
}

func TestRPCCountersTrackQueries(t *testing.T) {
	cl, _ := testCluster(t)
	base := cl.Ctl.Stats().Total()
	cl.Ctl.Jobs(LiveJobFilter{})
	cl.Ctl.Nodes()
	cl.Ctl.Utilization()
	if got := cl.Ctl.Stats().Total() - base; got != 3 {
		t.Fatalf("controller RPCs = %d, want 3", got)
	}
	if got := cl.Ctl.Stats().Count(RPCSqueue); got != 1 {
		t.Fatalf("squeue count = %d, want 1", got)
	}
	dbdBase := cl.DBD.Stats().Total()
	cl.DBD.Jobs(JobFilter{}, cl.Ctl.Now())
	if got := cl.DBD.Stats().Total() - dbdBase; got != 1 {
		t.Fatalf("dbd RPCs = %d, want 1", got)
	}
}

// TestRecordCountersTrackRows: the listing RPCs charge each daemon one
// record per row they return (job records, associations, rollup rows),
// while Total, Count and Snapshot keep counting RPCs only.
func TestRecordCountersTrackRows(t *testing.T) {
	cl, clock := testCluster(t)
	for i := 0; i < 3; i++ {
		submitOne(t, cl, SubmitRequest{
			User: "alice", Account: "lab-a", Partition: "cpu",
			ReqTRES: TRES{CPUs: 1, MemMB: 512},
			Profile: UsageProfile{ActualDuration: time.Minute, CPUUtilization: 1, MemUtilization: 0.5},
		})
	}
	cl.Ctl.Tick() // start them
	clock.Advance(5 * time.Minute)
	cl.Ctl.Tick() // finish them

	ctl, dbd := cl.Ctl.Stats(), cl.DBD.Stats()
	ctlRecords, dbdRecords, dbdRPCs := ctl.Records(), dbd.Records(), dbd.Total()
	queue := cl.Ctl.Jobs(LiveJobFilter{})
	if got := ctl.Records() - ctlRecords; got != int64(len(queue)) || got == 0 {
		t.Fatalf("controller records = %d, want the %d queue rows", got, len(queue))
	}
	jobs := cl.DBD.Jobs(JobFilter{}, cl.Ctl.Now())
	assocs := cl.DBD.Associations()
	now := cl.Ctl.Now().Unix()
	rollup := cl.DBD.RollupQuery(RollupScopeAccount, "", rollupFloor(now, RollupDay)-RollupDay,
		rollupFloor(now, RollupDay)+RollupDay, RollupDay)
	if len(jobs) != 3 || len(assocs) == 0 || len(rollup) == 0 {
		t.Fatalf("fixture: %d jobs, %d associations, %d rollup rows", len(jobs), len(assocs), len(rollup))
	}
	if got, want := dbd.Records()-dbdRecords, int64(len(jobs)+len(assocs)+len(rollup)); got != want {
		t.Fatalf("dbd records = %d, want %d", got, want)
	}
	if got := dbd.Total() - dbdRPCs; got != 3 {
		t.Fatalf("dbd RPCs = %d, want 3: records are not RPCs", got)
	}
	var snap int64
	for _, n := range dbd.Snapshot() {
		snap += n
	}
	if snap != dbd.Total() {
		t.Fatalf("snapshot sums to %d, want the %d RPCs", snap, dbd.Total())
	}
	dbd.Reset()
	if dbd.Records() != 0 {
		t.Fatalf("records after Reset = %d", dbd.Records())
	}
}

func TestQueryResultsAreCopies(t *testing.T) {
	cl, _ := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	j.Name = "mutated"
	j.Nodes[0] = "bogus"
	j2 := cl.Ctl.Job(id)
	if j2.Name == "mutated" || j2.Nodes[0] == "bogus" {
		t.Fatal("controller exposed internal job state to mutation")
	}
	n := cl.Ctl.Node(j2.Nodes[0])
	n.Alloc.CPUs = 999
	if cl.Ctl.Node(j2.Nodes[0]).Alloc.CPUs == 999 {
		t.Fatal("controller exposed internal node state to mutation")
	}
}
