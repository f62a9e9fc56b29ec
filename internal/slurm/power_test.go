package slurm

import (
	"testing"
	"time"

	"ooddash/internal/clock"
)

// powerTestCluster builds a small uniform cluster for power-cycle tests.
func powerTestCluster(t *testing.T, nodes int) (*Cluster, *clock.Sim) {
	t.Helper()
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cfg := ClusterConfig{
		Name: "power-test",
		Nodes: []NodeSpec{
			{NamePrefix: "n", Count: nodes, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"cpu"}},
		},
		Partitions: []PartitionSpec{{Name: "cpu", MaxTime: 24 * time.Hour, Default: true}},
		QOS:        []QOS{{Name: "normal"}},
		Associations: []Association{
			{Account: "acct"},
			{Account: "acct", User: "alice"},
		},
	}
	cluster, err := NewCluster(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, clock
}

func powerSubmit(t *testing.T, ctl *Controller, cpus int) JobID {
	t.Helper()
	id, err := ctl.Submit(SubmitRequest{
		Name: "job", User: "alice", Account: "acct", Partition: "cpu", QOS: "normal",
		ReqTRES:   TRES{CPUs: cpus, MemMB: 1024},
		TimeLimit: time.Hour,
		Profile:   UsageProfile{CPUUtilization: 0.9, MemUtilization: 0.5, ActualDuration: 30 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestDrillPowerDownAndAutoWake(t *testing.T) {
	cluster, clock := powerTestCluster(t, 4)
	ctl := cluster.Ctl

	// Power down every idle node but one.
	down := ctl.PowerDownIdle(1)
	if len(down) != 3 {
		t.Fatalf("PowerDownIdle(1) powered down %v, want 3 nodes", down)
	}
	for _, name := range down {
		n := ctl.Node(name)
		if got := n.EffectiveState(); got != NodePoweredDown {
			t.Fatalf("node %s state = %s, want POWERED_DOWN", name, got)
		}
		if n.Schedulable() {
			t.Fatalf("powered-down node %s reports schedulable", name)
		}
	}

	// Submit more work than the one awake node can hold: the scheduler must
	// wake powered-down nodes rather than leaving the queue starved.
	for i := 0; i < 4; i++ {
		powerSubmit(t, ctl, 8)
	}
	ctl.Tick()
	if got := ctl.Power().AutoWakes; got == 0 {
		t.Fatal("scheduler blocked on resources but triggered no auto-wake")
	}
	woken := 0
	for _, n := range ctl.Nodes() {
		if n.EffectiveState() == NodePoweringUp {
			woken++
		}
	}
	if woken == 0 {
		t.Fatal("no node is POWERING_UP after the auto-wake pass")
	}

	// Boot completes after the resume delay; the queue then drains onto the
	// woken nodes.
	clock.Advance(DefaultResumeDelay)
	ctl.Tick()
	running := len(ctl.Jobs(LiveJobFilter{States: []JobState{StateRunning}}))
	if running != 4 {
		t.Fatalf("after auto-wake boot, %d jobs running, want 4", running)
	}
	for _, n := range ctl.Nodes() {
		if n.PoweringUp {
			t.Fatalf("node %s still POWERING_UP after the resume delay", n.Name)
		}
	}
}

func TestPowerDownRefusesBusyNode(t *testing.T) {
	cluster, _ := powerTestCluster(t, 1)
	ctl := cluster.Ctl
	powerSubmit(t, ctl, 4)
	ctl.Tick()
	if err := ctl.PowerDownNode("n001"); err == nil {
		t.Fatal("PowerDownNode succeeded on a node with running jobs")
	}
}

func TestDrillRebootCycle(t *testing.T) {
	cluster, clock := powerTestCluster(t, 2)
	ctl := cluster.Ctl

	// Health-check flow: drain, wait for jobs to leave, reboot, resume.
	powerSubmit(t, ctl, 4)
	ctl.Tick()
	if err := ctl.DrainNode("n001", "health check failed"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.RebootNode("n001", "health check"); err == nil {
		t.Fatal("RebootNode succeeded with jobs still running")
	}
	clock.Advance(31 * time.Minute) // job's ActualDuration elapses
	ctl.Tick()

	if err := ctl.RebootNode("n001", "health check"); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Node("n001").EffectiveState(); got != NodeReboot {
		t.Fatalf("state during reboot = %s, want REBOOT", got)
	}
	clock.Advance(DefaultRebootDelay)
	ctl.Tick()
	n := ctl.Node("n001")
	if n.Rebooting {
		t.Fatal("node still rebooting after the reboot delay")
	}
	if !n.Drain {
		t.Fatal("reboot cleared the drain flag; resume must stay an explicit step")
	}
	if !n.BootTime.Equal(ctl.Now()) {
		t.Fatalf("BootTime = %v, want refreshed to %v", n.BootTime, ctl.Now())
	}
	if err := ctl.ResumeNode("n001"); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Node("n001").EffectiveState(); got != NodeIdle {
		t.Fatalf("state after resume = %s, want IDLE", got)
	}
}

func TestRebootRepairsDownNode(t *testing.T) {
	cluster, clock := powerTestCluster(t, 1)
	ctl := cluster.Ctl
	if err := ctl.SetNodeDown("n001", "hardware fault"); err != nil {
		t.Fatal(err)
	}
	if err := ctl.RebootNode("n001", "replace DIMM"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(DefaultRebootDelay)
	ctl.Tick()
	if got := ctl.Node("n001").EffectiveState(); got != NodeIdle {
		t.Fatalf("state after repair reboot = %s, want IDLE", got)
	}
}
