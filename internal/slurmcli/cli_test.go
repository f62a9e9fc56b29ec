package slurmcli

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/slurm"
)

// newTestRunner builds a small cluster with a live mix of jobs and returns
// the runner plus handles for direct assertions.
func newTestRunner(t testing.TB) (*SimRunner, *slurm.Cluster, *clock.Sim) {
	t.Helper()
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cfg := slurm.ClusterConfig{
		Name: "testcluster",
		Nodes: []slurm.NodeSpec{
			{NamePrefix: "c", Count: 4, CPUs: 8, MemMB: 16 * 1024, Features: []string{"milan", "avx2"}, Partitions: []string{"cpu"}},
			{NamePrefix: "g", Count: 1, CPUs: 16, MemMB: 64 * 1024, GPUs: 2, GPUType: "a100", Partitions: []string{"gpu"}},
		},
		Partitions: []slurm.PartitionSpec{
			{Name: "cpu", MaxTime: 24 * time.Hour, Default: true, Priority: 100},
			{Name: "gpu", MaxTime: 12 * time.Hour, Priority: 100},
		},
		QOS: []slurm.QOS{{Name: "normal"}},
		Associations: []slurm.Association{
			{Account: "lab-a", GrpCPULimit: 24},
			{Account: "lab-a", User: "alice"},
			{Account: "lab-b"},
			{Account: "lab-b", User: "carol"},
		},
	}
	cl, err := slurm.NewCluster(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	return NewSimRunner(cl), cl, clock
}

func mustSubmit(t testing.TB, cl *slurm.Cluster, req slurm.SubmitRequest) slurm.JobID {
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
	if req.Profile.CPUUtilization == 0 {
		req.Profile.CPUUtilization = 0.8
	}
	if req.Profile.MemUtilization == 0 {
		req.Profile.MemUtilization = 0.5
	}
	id, err := cl.Ctl.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestSqueueTypedRoundTrip(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	id := mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "train-model", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 8 * 1024},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	entries, err := Squeue(r, SqueueOptions{User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Name != "train-model" || e.User != "alice" || e.Account != "lab-a" {
		t.Fatalf("entry = %+v", e)
	}
	if e.State != slurm.StateRunning {
		t.Fatalf("state = %s", e.State)
	}
	if e.CPUs != 4 || e.MemMB != 8*1024 {
		t.Fatalf("cpus=%d mem=%d", e.CPUs, e.MemMB)
	}
	if e.JobID == "" || !strings.HasPrefix(e.NodeList, "c") {
		t.Fatalf("jobID=%q nodeList=%q", e.JobID, e.NodeList)
	}
	_ = id
}

func TestSqueuePendingShowsReason(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	// Saturate, then submit a blocked job.
	for i := 0; i < 4; i++ {
		mustSubmit(t, cl, slurm.SubmitRequest{
			User: "carol", Account: "lab-b", Partition: "cpu",
			ReqTRES: slurm.TRES{CPUs: 8, MemMB: 1024},
			Profile: slurm.UsageProfile{ActualDuration: time.Hour},
		})
	}
	mustSubmit(t, cl, slurm.SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 1024},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	entries, err := Squeue(r, SqueueOptions{User: "carol", States: []slurm.JobState{slurm.StatePending}})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("pending entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Reason != slurm.ReasonResources {
		t.Fatalf("reason = %s, want Resources", e.Reason)
	}
	if e.NodeList != "(Resources)" {
		t.Fatalf("nodeList = %q, want (Resources)", e.NodeList)
	}
}

func TestSqueueDefaultTableOutput(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "hello", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	out, err := r.Run("squeue")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 row:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "JOBID") || !strings.Contains(lines[0], "NODELIST(REASON)") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "hello") || !strings.Contains(lines[1], " R ") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestSqueueUnknownOption(t *testing.T) {
	r, _, _ := newTestRunner(t)
	if _, err := r.Run("squeue", "--bogus"); err == nil {
		t.Fatal("expected error for unknown option")
	}
}

func TestSinfoTypedUtilization(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 1024},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	mustSubmit(t, cl, slurm.SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 8192, GPUs: 1},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	parts, err := Sinfo(r)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]PartitionStatus)
	for _, p := range parts {
		byName[p.Name] = p
	}
	cpu, ok := byName["cpu"]
	if !ok {
		t.Fatalf("missing cpu partition: %+v", parts)
	}
	if cpu.TotalCPUs != 32 || cpu.AllocCPUs != 8 || cpu.RunningJobs != 1 {
		t.Fatalf("cpu = %+v", cpu)
	}
	if got := cpu.CPUPercent(); got != 25 {
		t.Fatalf("cpu%% = %v", got)
	}
	gpu := byName["gpu"]
	if gpu.TotalGPUs != 2 || gpu.AllocGPUs != 1 || gpu.GPUPercent() != 50 {
		t.Fatalf("gpu = %+v", gpu)
	}
	if gpu.NodeStates["MIXED"] != 1 {
		t.Fatalf("gpu node states = %+v", gpu.NodeStates)
	}
}

func TestSinfoTextOutput(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	cl.Ctl.Tick()
	out, err := r.Run("sinfo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PARTITION") {
		t.Fatalf("missing header:\n%s", out)
	}
	// The default cpu partition is starred, and idle nodes grouped.
	if !strings.Contains(out, "cpu*") {
		t.Fatalf("default partition not starred:\n%s", out)
	}
	if !strings.Contains(out, "c[001-004]") {
		t.Fatalf("node grouping missing:\n%s", out)
	}
}

func TestSacctTypedRoundTrip(t *testing.T) {
	r, cl, clock := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "analysis", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:   slurm.TRES{CPUs: 4, MemMB: 8 * 1024},
		TimeLimit: 2 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: time.Hour,
			CPUUtilization: 0.5, MemUtilization: 0.25},
	})
	cl.Ctl.Tick()
	clock.Advance(61 * time.Minute)
	cl.Ctl.Tick()

	rows, err := Sacct(r, SacctOptions{User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	row := rows[0]
	if row.Name != "analysis" || row.State != slurm.StateCompleted {
		t.Fatalf("row = %+v", row)
	}
	if row.Elapsed != time.Hour || row.TimeLimit != 2*time.Hour {
		t.Fatalf("elapsed=%v limit=%v", row.Elapsed, row.TimeLimit)
	}
	if row.ReqCPUs != 4 || row.AllocCPUs != 4 {
		t.Fatalf("req=%d alloc=%d", row.ReqCPUs, row.AllocCPUs)
	}
	// 4 CPUs x 1h x 0.5 = 2h of CPU time.
	if row.TotalCPU != 2*time.Hour {
		t.Fatalf("TotalCPU = %v, want 2h", row.TotalCPU)
	}
	// MaxRSS = 25% of 8 GiB = 2 GiB.
	if row.MaxRSSMB != 2*1024 {
		t.Fatalf("MaxRSSMB = %d, want 2048", row.MaxRSSMB)
	}
	if row.WaitTime() != 0 {
		t.Fatalf("WaitTime = %v, want 0 (scheduled immediately)", row.WaitTime())
	}
}

func TestSacctTimeWindow(t *testing.T) {
	r, cl, clock := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "old", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	cl.Ctl.Tick()
	clock.Advance(3 * time.Hour)
	cl.Ctl.Tick()
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "new", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	cl.Ctl.Tick()
	clock.Advance(20 * time.Minute)
	cl.Ctl.Tick()

	now := cl.Ctl.Now()
	rows, err := Sacct(r, SacctOptions{User: "alice", Start: now.Add(-time.Hour), End: now})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Name != "new" {
		t.Fatalf("windowed rows = %+v", rows)
	}
}

func TestSacctSessionComment(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "sys/dashboard/jupyter", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:        slurm.TRES{CPUs: 2, MemMB: 4096},
		InteractiveApp: "jupyter", SessionID: "b4f9c2",
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	rows, err := Sacct(r, SacctOptions{User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	app, sess, ok := rows[0].SessionInfo()
	if !ok || app != "jupyter" || sess != "b4f9c2" {
		t.Fatalf("session info = %q %q %v", app, sess, ok)
	}
}

func TestSacctArrayExpansion(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	first := mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "sweep", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, ArraySize: 4,
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	rows, err := Sacct(r, SacctOptions{ArrayJob: fmt.Sprintf("%d", first), AllUsers: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("array rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		if !row.IsArrayTask() {
			t.Fatalf("row %q not an array task", row.JobID)
		}
	}
}

func TestScontrolShowNodeTyped(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 8192, GPUs: 1},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour, CPUUtilization: 0.75},
	})
	cl.Ctl.Tick()
	d, err := ShowNode(r, "g001")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "g001" || d.CPUTotal != 16 || d.CPUAlloc != 4 {
		t.Fatalf("detail = %+v", d)
	}
	if d.GPUTotal != 2 || d.GPUAlloc != 1 || d.GPUType != "a100" {
		t.Fatalf("gpu detail = %+v", d)
	}
	if d.State != slurm.NodeMixed {
		t.Fatalf("state = %s", d.State)
	}
	if d.MemMB != 64*1024 || d.AllocMemMB != 8192 {
		t.Fatalf("mem = %d/%d", d.AllocMemMB, d.MemMB)
	}
	if len(d.Partitions) != 1 || d.Partitions[0] != "gpu" {
		t.Fatalf("partitions = %v", d.Partitions)
	}
	if d.CPULoad != 3 { // 4 cpus x 0.75
		t.Fatalf("load = %v", d.CPULoad)
	}
}

func TestShowAllNodes(t *testing.T) {
	r, _, _ := newTestRunner(t)
	nodes, err := ShowAllNodes(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 5 {
		t.Fatalf("nodes = %d, want 5", len(nodes))
	}
}

func TestShowNodeUnknown(t *testing.T) {
	r, _, _ := newTestRunner(t)
	if _, err := ShowNode(r, "zz999"); err == nil {
		t.Fatal("expected error for unknown node")
	}
}

func TestScontrolShowJobTyped(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	id := mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "detail-me", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:    slurm.TRES{CPUs: 4, MemMB: 8 * 1024},
		WorkDir:    "/home/alice/proj",
		StdoutPath: "/home/alice/proj/out.log",
		StderrPath: "/home/alice/proj/err.log",
		Profile:    slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	d, err := ShowJob(r, id)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != id || d.Name != "detail-me" || d.User != "alice" {
		t.Fatalf("detail = %+v", d)
	}
	if d.State != slurm.StateRunning || d.NodeList == "" {
		t.Fatalf("state=%s nodes=%q", d.State, d.NodeList)
	}
	if d.WorkDir != "/home/alice/proj" || d.StdoutPath != "/home/alice/proj/out.log" {
		t.Fatalf("paths = %q %q", d.WorkDir, d.StdoutPath)
	}
	if d.MemMB != 8*1024 || d.NumCPUs != 4 {
		t.Fatalf("mem=%d cpus=%d", d.MemMB, d.NumCPUs)
	}
}

func TestScontrolShowJobFallsBackToAccounting(t *testing.T) {
	r, cl, clock := newTestRunner(t)
	id := mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Minute},
	})
	cl.Ctl.Tick()
	clock.Advance(30 * time.Minute) // past controller retention
	cl.Ctl.Tick()
	d, err := ShowJob(r, id)
	if err != nil {
		t.Fatal(err)
	}
	if d.State != slurm.StateCompleted {
		t.Fatalf("state = %s, want COMPLETED from accounting", d.State)
	}
}

func TestShowAssocs(t *testing.T) {
	r, _, _ := newTestRunner(t)
	assocs, err := ShowAssocs(r, "lab-a", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(assocs) != 2 { // account-level + alice
		t.Fatalf("assocs = %+v", assocs)
	}
	var acct *AssocDetail
	for i := range assocs {
		if assocs[i].User == "" {
			acct = &assocs[i]
		}
	}
	if acct == nil || acct.GrpCPULimit != 24 {
		t.Fatalf("account assoc = %+v", acct)
	}
}

func TestScancelThroughRunner(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	id := mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	if err := Scancel(r, id, "carol"); err == nil {
		t.Fatal("scancel by non-owner should fail")
	}
	if err := Scancel(r, id, "alice"); err != nil {
		t.Fatal(err)
	}
	if got := cl.Ctl.Job(id).State; got != slurm.StateCancelled {
		t.Fatalf("state = %s", got)
	}
}

func TestUnknownCommand(t *testing.T) {
	r, _, _ := newTestRunner(t)
	if _, err := r.Run("sbacon"); err == nil {
		t.Fatal("expected command-not-found error")
	}
}

func TestParseScontrolBlocksMultiple(t *testing.T) {
	out := "NodeName=a001 State=IDLE\n   CPUTot=8\nNodeName=a002 State=MIXED\n   CPUTot=8\n"
	blocks := ParseScontrolBlocks(out)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(blocks))
	}
	if blocks[0]["NodeName"] != "a001" || blocks[1]["State"] != "MIXED" {
		t.Fatalf("blocks = %+v", blocks)
	}
}

func TestParseScontrolBlocksKeepsEmbeddedEquals(t *testing.T) {
	out := "JobId=5 JobName=x\n   Comment=ood:app=jupyter;session=abc\n"
	blocks := ParseScontrolBlocks(out)
	if got := blocks[0]["Comment"]; got != "ood:app=jupyter;session=abc" {
		t.Fatalf("Comment = %q", got)
	}
}

func TestSdiagRoundTrip(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	// Generate some query traffic to count.
	if _, err := Squeue(r, SqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Sacct(r, SacctOptions{AllUsers: true}); err != nil {
		t.Fatal(err)
	}
	ctld, dbd, err := Sdiag(r)
	if err != nil {
		t.Fatal(err)
	}
	if ctld.Name != "slurmctld" || dbd.Name != "slurmdbd" {
		t.Fatalf("names = %q %q", ctld.Name, dbd.Name)
	}
	if ctld.Records != 1 || dbd.Records != 1 {
		t.Fatalf("records = %d %d", ctld.Records, dbd.Records)
	}
	if ctld.RPCCounts["REQUEST_JOB_INFO"] == 0 {
		t.Fatalf("ctld counts = %+v", ctld.RPCCounts)
	}
	if dbd.RPCCounts["DBD_GET_JOBS"] == 0 {
		t.Fatalf("dbd counts = %+v", dbd.RPCCounts)
	}
}

func TestShowReservations(t *testing.T) {
	r, cl, clock := newTestRunner(t)
	// Empty system.
	res, err := ShowReservations(r)
	if err != nil || res != nil {
		t.Fatalf("empty = %+v, %v", res, err)
	}
	start := clock.Now().Add(2 * time.Hour)
	if _, err := cl.Ctl.ScheduleMaintenance("pm-2026-07", start, start.Add(6*time.Hour),
		[]string{"c001", "c002"}, "network switch swap"); err != nil {
		t.Fatal(err)
	}
	res, err = ShowReservations(r)
	if err != nil || len(res) != 1 {
		t.Fatalf("res = %+v, %v", res, err)
	}
	d := res[0]
	if d.Name != "pm-2026-07" || !d.Start.Equal(start) {
		t.Fatalf("detail = %+v", d)
	}
	if d.Nodes != "c[001-002]" {
		t.Fatalf("nodes = %q", d.Nodes)
	}
	if d.Comment != "network switch swap" {
		t.Fatalf("comment = %q", d.Comment)
	}
}

func TestParseScontrolBlocksFreeText(t *testing.T) {
	out := "NodeName=a001 State=DRAIN\n   OS=Linux 5.14.0-rcac x86\n   Reason=bad dimm pair B2\n"
	blk := ParseScontrolBlocks(out)[0]
	if blk["OS"] != "Linux 5.14.0-rcac x86" {
		t.Fatalf("OS = %q", blk["OS"])
	}
	if blk["Reason"] != "bad dimm pair B2" {
		t.Fatalf("Reason = %q", blk["Reason"])
	}
}

func TestNodeDetailKeepsMultiWordOSAndReason(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	if err := cl.Ctl.DrainNode("c003", "bad dimm pair B2"); err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	d, err := ShowNode(r, "c003")
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "bad dimm pair B2" {
		t.Fatalf("reason = %q", d.Reason)
	}
	if !strings.Contains(d.OS, " ") {
		t.Fatalf("OS lost spaces: %q", d.OS)
	}
}

func TestSprioRoundTrip(t *testing.T) {
	r, cl, clock := newTestRunner(t)
	// Saturate the cluster, then queue two jobs with different ages.
	for i := 0; i < 4; i++ {
		mustSubmit(t, cl, slurm.SubmitRequest{
			User: "carol", Account: "lab-b", Partition: "cpu",
			ReqTRES: slurm.TRES{CPUs: 8, MemMB: 1024},
			Profile: slurm.UsageProfile{ActualDuration: time.Hour},
		})
	}
	older := mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 1024},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	clock.Advance(10 * time.Minute)
	newer := mustSubmit(t, cl, slurm.SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 1024},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()

	rows, err := Sprio(r, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("pending rows = %+v", rows)
	}
	// Highest priority first: the older job leads on the age factor.
	if rows[0].JobID != older || rows[1].JobID != newer {
		t.Fatalf("order = %d then %d, want %d then %d", rows[0].JobID, rows[1].JobID, older, newer)
	}
	if rows[0].Age < 10 {
		t.Fatalf("age factor = %d, want >= 10 minutes", rows[0].Age)
	}
	if rows[0].Priority != 1000+rows[0].Age+rows[0].QOS+rows[0].Partition+rows[0].FairShare {
		t.Fatalf("factors don't sum: %+v", rows[0])
	}
	// User filter.
	mine, err := Sprio(r, "alice")
	if err != nil || len(mine) != 1 || mine[0].User != "alice" {
		t.Fatalf("filtered = %+v, %v", mine, err)
	}
}

func TestSreportAccountUtilization(t *testing.T) {
	r, cl, clock := newTestRunner(t)
	// alice (lab-a): 4 CPUs x 1h at full utilization = 4 core-hours.
	mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 1024}, TimeLimit: 2 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1.0, MemUtilization: 0.5},
	})
	// carol (lab-b): GPU job, 2 GPUs x 30 min = 1 GPU-hour.
	mustSubmit(t, cl, slurm.SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 8192, GPUs: 2}, TimeLimit: time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	clock.Advance(2 * time.Hour)
	cl.Ctl.Tick()

	now := cl.Ctl.Now()
	rows, err := SreportAccountUtilization(r, now.Add(-24*time.Hour), now)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Account != "lab-a" || rows[0].User != "alice" {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	if rows[0].CPUHours < 3.99 || rows[0].CPUHours > 4.01 {
		t.Fatalf("alice core-hours = %v", rows[0].CPUHours)
	}
	if rows[1].GPUHours < 0.99 || rows[1].GPUHours > 1.01 {
		t.Fatalf("carol gpu-hours = %v", rows[1].GPUHours)
	}
	// A window before the jobs charges nothing.
	empty, err := SreportAccountUtilization(r, now.Add(-48*time.Hour), now.Add(-24*time.Hour))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty window = %+v, %v", empty, err)
	}
}

func TestScontrolSuspendResume(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	id := mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	if _, err := r.Run("scontrol", "suspend", fmt.Sprintf("%d", id), "user=alice"); err != nil {
		t.Fatal(err)
	}
	if got := cl.Ctl.Job(id).State; got != slurm.StateSuspended {
		t.Fatalf("state = %s", got)
	}
	if _, err := r.Run("scontrol", "resume", fmt.Sprintf("%d", id), "user=alice"); err != nil {
		t.Fatal(err)
	}
	if got := cl.Ctl.Job(id).State; got != slurm.StateRunning {
		t.Fatalf("state = %s", got)
	}
}

func TestShowJobConstraint(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	id := mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "constrained", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, Constraint: "milan,avx2",
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	d, err := ShowJob(r, id)
	if err != nil {
		t.Fatal(err)
	}
	if d.Constraint != "milan,avx2" {
		t.Fatalf("constraint = %q", d.Constraint)
	}
}
