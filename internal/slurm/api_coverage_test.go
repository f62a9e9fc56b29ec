package slurm

import (
	"testing"
	"time"

	"ooddash/internal/clock"
)

func TestDefaultConfigBoots(t *testing.T) {
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cfg := DefaultConfig()
	cfg.Associations = []Association{
		{Account: "demo"}, {Account: "demo", User: "ada"},
	}
	cl, err := NewCluster(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Ctl.ClusterName() != "anvil" {
		t.Fatalf("name = %q", cl.Ctl.ClusterName())
	}
	parts := cl.Ctl.Partitions()
	if len(parts) != 5 {
		t.Fatalf("partitions = %d", len(parts))
	}
	// The standby tier is preemptable; debug caps jobs per user.
	if q := cl.Ctl.QOSByName("standby"); q == nil || !q.Preemptable {
		t.Fatalf("standby QOS = %+v", q)
	}
	if q := cl.Ctl.QOSByName("debug"); q == nil || q.MaxJobsPerUser != 2 {
		t.Fatalf("debug QOS = %+v", q)
	}
	if q := cl.Ctl.QOSByName("nope"); q != nil {
		t.Fatalf("unknown QOS = %+v", q)
	}
	id, err := cl.Ctl.Submit(SubmitRequest{
		Name: "boot", User: "ada", Account: "demo", Partition: "cpu", QOS: "normal",
		ReqTRES: TRES{CPUs: 8, MemMB: 4096}, TimeLimit: time.Hour,
		Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(id).State; got != StateRunning {
		t.Fatalf("state = %s", got)
	}
	if cl.DBD.JobCount() != 1 {
		t.Fatalf("dbd count = %d", cl.DBD.JobCount())
	}
}

func TestHoldDirectAPI(t *testing.T) {
	cl, _ := testCluster(t)
	id := submitOne(t, cl, SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	// Hold before the first scheduling pass keeps the job pending.
	if err := cl.Ctl.Hold(id, "alice"); err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	j := cl.Ctl.Job(id)
	if j.State != StatePending || j.Reason != ReasonJobHeldUser {
		t.Fatalf("held job = %s/%s", j.State, j.Reason)
	}
	if err := cl.Ctl.Hold(99999, "root"); err == nil {
		t.Fatal("holding unknown job should fail")
	}
}

func TestLiveJobFilterFields(t *testing.T) {
	cl, _ := testCluster(t)
	a := submitOne(t, cl, SubmitRequest{
		Name: "a", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: TRES{CPUs: 1, MemMB: 512},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	submitOne(t, cl, SubmitRequest{
		Name: "b", User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: TRES{CPUs: 2, MemMB: 512, GPUs: 1},
		Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	cl.Ctl.Tick()
	node := cl.Ctl.Job(a).Nodes[0]

	if got := cl.Ctl.Jobs(LiveJobFilter{Account: "lab-b"}); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("account filter = %+v", got)
	}
	if got := cl.Ctl.Jobs(LiveJobFilter{Partition: "gpu"}); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("partition filter = %+v", got)
	}
	if got := cl.Ctl.Jobs(LiveJobFilter{Node: node}); len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("node filter = %+v", got)
	}
	if got := cl.Ctl.Jobs(LiveJobFilter{User: "alice", Limit: 1}); len(got) != 1 {
		t.Fatalf("limit filter = %+v", got)
	}
	if got := cl.Ctl.Jobs(LiveJobFilter{States: []JobState{StateFailed}}); len(got) != 0 {
		t.Fatalf("state filter = %+v", got)
	}
}

func TestJobWaitTimeAndMaxRSS(t *testing.T) {
	now := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	j := &Job{SubmitTime: now, ReqTRES: TRES{MemMB: 8192},
		Profile: UsageProfile{MemUtilization: 0.25}}
	// Pending: wait grows with now.
	if got := j.WaitTime(now.Add(5 * time.Minute)); got != 5*time.Minute {
		t.Fatalf("pending wait = %v", got)
	}
	if got := j.WaitTime(now.Add(-time.Minute)); got != 0 {
		t.Fatalf("pre-submit wait = %v", got)
	}
	// Started: wait freezes at start-submit.
	j.StartTime = now.Add(10 * time.Minute)
	if got := j.WaitTime(now.Add(time.Hour)); got != 10*time.Minute {
		t.Fatalf("started wait = %v", got)
	}
	if got := j.MaxRSSMB(); got != 2048 {
		t.Fatalf("MaxRSS = %d", got)
	}
}

func TestDisplayIDPlain(t *testing.T) {
	j := &Job{ID: 1234}
	if got := j.DisplayID(); got != "1234" {
		t.Fatalf("DisplayID = %q", got)
	}
}

func TestPartitionClone(t *testing.T) {
	p := &Partition{Name: "cpu", Nodes: []string{"a", "b"}}
	cp := p.Clone()
	cp.Nodes[0] = "z"
	if p.Nodes[0] != "a" {
		t.Fatal("Clone shares node slice")
	}
}

func TestUtilizationZeroDenominators(t *testing.T) {
	u := PartitionUtilization{}
	if u.CPUPercent() != 0 || u.GPUPercent() != 0 {
		t.Fatal("zero-capacity percent not 0")
	}
}

// TestRealClock checks that a cluster built without a clock runs on the
// wall clock.
func TestRealClock(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Name:       "wall",
		Nodes:      []NodeSpec{{NamePrefix: "n", Count: 1, CPUs: 4, MemMB: 4096, Partitions: []string{"cpu"}}},
		Partitions: []PartitionSpec{{Name: "cpu", MaxTime: time.Hour, Default: true}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	got := cl.Clock.Now()
	if got.Before(before.Add(-time.Second)) || got.After(before.Add(time.Minute)) {
		t.Fatalf("nil-clock cluster Now = %v", got)
	}
}

func TestStateEventKinds(t *testing.T) {
	cases := map[JobState]EventKind{
		StateCompleted:   EventCompleted,
		StateFailed:      EventFailed,
		StateTimeout:     EventTimeout,
		StateCancelled:   EventCancelled,
		StateNodeFail:    EventNodeFail,
		StateOutOfMemory: EventOOM,
		StatePreempted:   EventPreempted,
		StateRunning:     EventCompleted, // fallback
	}
	for state, want := range cases {
		if got := stateEventKind(state); got != want {
			t.Errorf("stateEventKind(%s) = %s, want %s", state, got, want)
		}
	}
}

func TestConfigValidationErrors(t *testing.T) {
	base := func() ClusterConfig {
		return ClusterConfig{
			Name: "x",
			Nodes: []NodeSpec{
				{NamePrefix: "n", Count: 1, CPUs: 1, MemMB: 1, Partitions: []string{"p"}},
			},
			Partitions: []PartitionSpec{{Name: "p"}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*ClusterConfig)
	}{
		{"no name", func(c *ClusterConfig) { c.Name = "" }},
		{"no nodes", func(c *ClusterConfig) { c.Nodes = nil }},
		{"no partitions", func(c *ClusterConfig) { c.Partitions = nil }},
		{"empty partition name", func(c *ClusterConfig) { c.Partitions[0].Name = "" }},
		{"duplicate partition", func(c *ClusterConfig) {
			c.Partitions = append(c.Partitions, PartitionSpec{Name: "p"})
		}},
		{"zero cpus", func(c *ClusterConfig) { c.Nodes[0].CPUs = 0 }},
		{"node without partition", func(c *ClusterConfig) { c.Nodes[0].Partitions = nil }},
		{"unknown partition ref", func(c *ClusterConfig) { c.Nodes[0].Partitions = []string{"zz"} }},
		{"assoc without account", func(c *ClusterConfig) {
			c.Associations = []Association{{User: "x"}}
		}},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	good := base()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestEventLogDefaultCapacity(t *testing.T) {
	l := newEventLog(0)
	if l.cap != 4096 {
		t.Fatalf("default cap = %d", l.cap)
	}
}
