package slurm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ooddash/internal/clock"
)

// checkInvariants asserts the structural invariants that must hold after
// any Tick, used by the randomized scheduler property test.
func checkInvariants(t *testing.T, cl *Cluster) {
	t.Helper()
	nodes := cl.Ctl.Nodes()
	nodeByName := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		nodeByName[n.Name] = n
		// 1. No node is over- or under-allocated.
		if n.Alloc.CPUs < 0 || n.Alloc.CPUs > n.CPUs {
			t.Fatalf("node %s CPU allocation out of range: %d/%d", n.Name, n.Alloc.CPUs, n.CPUs)
		}
		if n.Alloc.MemMB < 0 || n.Alloc.MemMB > n.MemMB {
			t.Fatalf("node %s memory allocation out of range: %d/%d", n.Name, n.Alloc.MemMB, n.MemMB)
		}
		if n.Alloc.GPUs < 0 || n.Alloc.GPUs > n.GPUs {
			t.Fatalf("node %s GPU allocation out of range: %d/%d", n.Name, n.Alloc.GPUs, n.GPUs)
		}
	}

	jobs := cl.Ctl.Jobs(LiveJobFilter{States: AllJobStates})
	perNodeCPU := make(map[string]int)
	for _, j := range jobs {
		switch {
		case j.State == StateRunning || j.State == StateSuspended:
			if len(j.Nodes) == 0 {
				t.Fatalf("running/suspended job %d has no nodes", j.ID)
			}
			share := perNodeShare(j.AllocTRES, len(j.Nodes))
			for _, name := range j.Nodes {
				n := nodeByName[name]
				if n == nil {
					t.Fatalf("running job %d on unknown node %s", j.ID, name)
				}
				// 2. The node knows about the job.
				found := false
				for _, id := range n.RunningJobs {
					if id == j.ID {
						found = true
					}
				}
				if !found {
					t.Fatalf("node %s missing running job %d", name, j.ID)
				}
				perNodeCPU[name] += share.CPUs
			}
		case j.State.Terminal():
			// 3. Finished jobs hold no resources and have an end time.
			if j.EndTime.IsZero() {
				t.Fatalf("terminal job %d has no end time", j.ID)
			}
		case j.State == StatePending:
			// 4. Pending jobs carry a reason and no allocation.
			if j.Reason == ReasonNone {
				t.Fatalf("pending job %d has no reason", j.ID)
			}
			if j.AllocTRES.CPUs != 0 || len(j.Nodes) != 0 {
				t.Fatalf("pending job %d holds resources: %+v %v", j.ID, j.AllocTRES, j.Nodes)
			}
		}
		// 5. Accounting has a record of every job the controller knows.
		if cl.DBD.Job(j.ID) == nil {
			t.Fatalf("job %d missing from accounting", j.ID)
		}
	}
	// 6. Conservation: node allocations equal the sum of running shares.
	for name, want := range perNodeCPU {
		if got := nodeByName[name].Alloc.CPUs; got != want {
			t.Fatalf("node %s CPU allocation %d != running-job share sum %d", name, got, want)
		}
	}
	for _, n := range nodes {
		if perNodeCPU[n.Name] == 0 && n.Alloc.CPUs != 0 {
			t.Fatalf("node %s has allocation %d with no running jobs", n.Name, n.Alloc.CPUs)
		}
	}
}

// TestSchedulerInvariantsProperty drives random submissions, cancels, node
// drains, and preemptions through the scheduler and checks the invariants
// after every tick.
func TestSchedulerInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clock := clock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
		cfg := ClusterConfig{
			Name: "prop",
			Nodes: []NodeSpec{
				{NamePrefix: "c", Count: 4, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"cpu", "standby"}},
				{NamePrefix: "g", Count: 1, CPUs: 16, MemMB: 32 * 1024, GPUs: 2, GPUType: "a100", Partitions: []string{"gpu"}},
			},
			Partitions: []PartitionSpec{
				{Name: "cpu", MaxTime: 8 * time.Hour, Default: true, Priority: 100},
				{Name: "standby", MaxTime: 4 * time.Hour},
				{Name: "gpu", MaxTime: 8 * time.Hour, Priority: 100},
			},
			QOS: []QOS{
				{Name: "normal"},
				{Name: "standby", Priority: -500, Preemptable: true},
			},
			Associations: []Association{
				{Account: "lab", GrpCPULimit: 40},
				{Account: "lab", User: "u1"},
				{Account: "lab", User: "u2"},
			},
		}
		cl, err := NewCluster(cfg, clock)
		if err != nil {
			t.Fatal(err)
		}
		var submitted []JobID
		users := []string{"u1", "u2"}
		for step := 0; step < 60; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // submit
				part, qos := "cpu", "normal"
				gres := 0
				switch rng.Intn(4) {
				case 0:
					part, qos = "standby", "standby"
				case 1:
					part = "gpu"
					gres = 1 + rng.Intn(2)
				}
				profile := UsageProfile{
					ActualDuration: time.Duration(5+rng.Intn(120)) * time.Minute,
					CPUUtilization: rng.Float64(),
					MemUtilization: rng.Float64() * 1.2, // sometimes OOMs
				}
				if rng.Intn(8) == 0 {
					profile.FailureState = StateFailed
					profile.ExitCode = 1
				}
				id, err := cl.Ctl.Submit(SubmitRequest{
					Name: "prop", User: users[rng.Intn(2)], Account: "lab",
					Partition: part, QOS: qos,
					ReqTRES: TRES{
						CPUs:  1 << rng.Intn(4),
						MemMB: int64(1+rng.Intn(8)) * 1024,
						GPUs:  gres,
						Nodes: 1 + rng.Intn(2),
					},
					TimeLimit: time.Duration(1+rng.Intn(4)) * time.Hour,
					Profile:   profile,
				})
				if err == nil {
					submitted = append(submitted, id)
				}
			case 5: // cancel, suspend, or resume a random job
				if len(submitted) > 0 {
					id := submitted[rng.Intn(len(submitted))]
					switch rng.Intn(3) {
					case 0:
						_ = cl.Ctl.Cancel(id, "root")
					case 1:
						_ = cl.Ctl.Suspend(id, "root")
					default:
						_ = cl.Ctl.Resume(id, "root")
					}
				}
			case 6: // drain or resume a node
				name := []string{"c001", "c002", "c003", "c004", "g001"}[rng.Intn(5)]
				if rng.Intn(2) == 0 {
					_ = cl.Ctl.DrainNode(name, "prop-test")
				} else {
					_ = cl.Ctl.ResumeNode(name)
				}
			case 7: // down + resume cycle
				name := []string{"c001", "c002"}[rng.Intn(2)]
				_ = cl.Ctl.SetNodeDown(name, "prop-test")
			default: // just advance time
			}
			clock.Advance(time.Duration(1+rng.Intn(30)) * time.Minute)
			cl.Ctl.Tick()
			checkInvariants(t, &Cluster{Name: "prop", Clock: clock, Ctl: cl.Ctl, DBD: cl.DBD})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesDuringTicks exercises the controller under racing
// readers and writers; run with -race to validate the locking.
func TestConcurrentQueriesDuringTicks(t *testing.T) {
	cl, clock := testCluster(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			submitOne(t, cl, SubmitRequest{
				User: "alice", Account: "lab-a", Partition: "cpu",
				ReqTRES: TRES{CPUs: 1 + i%4, MemMB: 512},
				Profile: UsageProfile{ActualDuration: 10 * time.Minute,
					CPUUtilization: 0.5, MemUtilization: 0.5},
			})
			clock.Advance(time.Minute)
			cl.Ctl.Tick()
		}
	}()
	for i := 0; i < 100; i++ {
		cl.Ctl.Jobs(LiveJobFilter{User: "alice"})
		cl.Ctl.Nodes()
		cl.Ctl.Utilization()
		cl.Ctl.EventsSince(0, 50)
		cl.DBD.Jobs(JobFilter{Users: []string{"alice"}, Limit: 20}, cl.Ctl.Now())
		cl.Ctl.LiveAccountUsage("lab-a")
	}
	<-done
}
