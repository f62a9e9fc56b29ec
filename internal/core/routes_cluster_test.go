package core

import (
	"testing"
	"time"

	"ooddash/internal/slurm"
)

func TestClusterStatusGridData(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 1024}, // fills c001 exactly
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	if err := e.cluster.Ctl.DrainNode("c004", "bad dimm"); err != nil {
		t.Fatal(err)
	}
	if err := e.cluster.Ctl.SetNodeDown("g002", "power supply"); err != nil {
		t.Fatal(err)
	}
	if err := e.cluster.Ctl.SetNodeMaint("c003", true); err != nil {
		t.Fatal(err)
	}
	e.cluster.Ctl.Tick()

	var resp ClusterStatusResponse
	e.getJSON("alice", "/api/cluster_status", &resp)
	if resp.Total != 6 {
		t.Fatalf("total = %d, want 6", resp.Total)
	}
	byName := make(map[string]NodeCell)
	for _, n := range resp.Nodes {
		byName[n.Name] = n
	}
	if c := byName["c001"]; c.Color != "green" || c.State != "ALLOCATED" {
		t.Fatalf("c001 = %+v", c)
	}
	if c := byName["c002"]; c.Color != "faded-green" || c.State != "IDLE" {
		t.Fatalf("c002 = %+v", c)
	}
	if c := byName["c003"]; c.Color != "orange" {
		t.Fatalf("c003 = %+v", c)
	}
	if c := byName["c004"]; c.Color != "yellow" {
		t.Fatalf("c004 = %+v", c)
	}
	if c := byName["g002"]; c.Color != "red" {
		t.Fatalf("g002 = %+v", c)
	}
	if resp.StateCounts["red"] != 1 || resp.StateCounts["yellow"] != 1 {
		t.Fatalf("state counts = %+v", resp.StateCounts)
	}
}

func TestClusterStatusSearch(t *testing.T) {
	e := newEnv(t)
	var resp ClusterStatusResponse
	e.getJSON("alice", "/api/cluster_status?search=gpu", &resp)
	if len(resp.Nodes) != 2 {
		t.Fatalf("gpu search = %+v", resp.Nodes)
	}
	e.getJSON("alice", "/api/cluster_status?search=c00", &resp)
	if len(resp.Nodes) != 4 {
		t.Fatalf("name search = %d nodes", len(resp.Nodes))
	}
	e.getJSON("alice", "/api/cluster_status?search=idle", &resp)
	if len(resp.Nodes) != 6 {
		t.Fatalf("state search = %d nodes", len(resp.Nodes))
	}
}

func TestClusterStatusSort(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 6, MemMB: 1024},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1.0},
	})
	var resp ClusterStatusResponse
	e.getJSON("alice", "/api/cluster_status?sort=cpu_load&order=desc", &resp)
	if resp.Nodes[0].CPULoad < resp.Nodes[1].CPULoad {
		t.Fatalf("desc sort violated: %v then %v", resp.Nodes[0].CPULoad, resp.Nodes[1].CPULoad)
	}
	if resp.Nodes[0].Name != "c001" {
		t.Fatalf("busiest node = %s", resp.Nodes[0].Name)
	}
	e.wantStatus("alice", "/api/cluster_status?sort=bogus", 400)
}

func TestNodeOverview(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 32 * 1024, GPUs: 1},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour, CPUUtilization: 0.5},
	})
	var resp NodeOverviewResponse
	e.getJSON("alice", "/api/node/g001", &resp)
	if resp.Name != "g001" || resp.State != "MIXED" || resp.Color != "green" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.CPUPercent != 50 || resp.MemPercent != 50 || resp.GPUPercent != 50 {
		t.Fatalf("percents = %v %v %v", resp.CPUPercent, resp.MemPercent, resp.GPUPercent)
	}
	if resp.GPUType != "a100" || resp.OS == "" || resp.Arch != "x86_64" {
		t.Fatalf("details = %+v", resp)
	}
	if len(resp.Partitions) != 1 || resp.Partitions[0] != "gpu" {
		t.Fatalf("partitions = %v", resp.Partitions)
	}
}

func TestNodeOverviewUnknownNode(t *testing.T) {
	e := newEnv(t)
	e.wantStatus("alice", "/api/node/zz999", 404)
}

// TestNodeOverviewReadsNodeTable: an overview picks its node from the
// cluster_nodes fill the grid reads, so the grid and three overviews cost
// one scontrol show node, an unknown name is a 404 that costs nothing
// upstream, and past the TTL one table refill serves them all again.
func TestNodeOverviewReadsNodeTable(t *testing.T) {
	e := newEnv(t)
	before := e.cluster.Ctl.Stats().Count(slurm.RPCNodeInfo)
	rpcs := func() int64 { return e.cluster.Ctl.Stats().Count(slurm.RPCNodeInfo) - before }
	e.wantStatus("alice", "/api/cluster_status", 200)
	for _, n := range []string{"c001", "c002", "g001"} {
		e.wantStatus("bob", "/api/node/"+n, 200)
	}
	if got := rpcs(); got != 1 {
		t.Fatalf("the grid and three overviews cost %d node RPCs, want 1", got)
	}
	for i := 0; i < 5; i++ {
		e.wantStatus("carol", "/api/node/zz999", 404)
	}
	if got := rpcs(); got != 1 {
		t.Fatalf("5 unknown names cost %d node RPCs beyond the table fill", got-1)
	}
	e.clock.Advance(e.server.Config().TTLs.ClusterNodes + time.Second)
	for i := 0; i < 5; i++ {
		e.wantStatus("carol", "/api/node/zz999", 404)
	}
	e.wantStatus("alice", "/api/node/c001", 200)
	if got := rpcs(); got != 2 {
		t.Fatalf("past the TTL: %d node RPCs in all, want 2", got)
	}
}

func TestNodeJobsTab(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "on-node", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	node := e.cluster.Ctl.Job(id).Nodes[0]
	var resp NodeJobsResponse
	e.getJSON("bob", "/api/node/"+node+"/jobs", &resp)
	if len(resp.Jobs) != 1 {
		t.Fatalf("jobs = %+v", resp.Jobs)
	}
	j := resp.Jobs[0]
	if j.Name != "on-node" || j.User != "alice" || j.State != "RUNNING" {
		t.Fatalf("job row = %+v", j)
	}
	if j.OverviewURL == "" {
		t.Fatal("missing overview link")
	}
	// A different node shows no jobs.
	var other NodeJobsResponse
	e.getJSON("bob", "/api/node/c004/jobs", &other)
	if len(other.Jobs) != 0 {
		t.Fatalf("c004 jobs = %+v", other.Jobs)
	}
}

func TestClusterStatusCached(t *testing.T) {
	e := newEnv(t)
	before := e.cluster.Ctl.Stats().Count(slurm.RPCNodeInfo)
	var resp ClusterStatusResponse
	e.getJSON("alice", "/api/cluster_status", &resp)
	e.getJSON("bob", "/api/cluster_status", &resp)
	e.getJSON("carol", "/api/cluster_status?search=gpu", &resp)
	after := e.cluster.Ctl.Stats().Count(slurm.RPCNodeInfo)
	if after-before != 1 {
		t.Fatalf("node info RPCs = %d, want 1 (shared cache)", after-before)
	}
}

func TestNodeStateColorMapping(t *testing.T) {
	tests := []struct {
		state slurm.NodeState
		want  string
	}{
		{slurm.NodeAllocated, "green"},
		{slurm.NodeMixed, "green"},
		{slurm.NodeIdle, "faded-green"},
		{slurm.NodeDrained, "yellow"},
		{slurm.NodeDraining, "yellow"},
		{slurm.NodeMaint, "orange"},
		{slurm.NodeDown, "red"},
	}
	for _, tc := range tests {
		if got := nodeStateColor(tc.state); got != tc.want {
			t.Errorf("nodeStateColor(%s) = %s, want %s", tc.state, got, tc.want)
		}
	}
}

func TestClusterStatusSortVariants(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 2048},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour, CPUUtilization: 1.0},
	})
	for _, sortKey := range []string{"name", "state", "cpu_alloc", "mem", "cpu_load"} {
		var resp ClusterStatusResponse
		e.getJSON("alice", "/api/cluster_status?sort="+sortKey, &resp)
		if len(resp.Nodes) == 0 {
			t.Fatalf("sort=%s returned no nodes", sortKey)
		}
	}
	// cpu_alloc ascending puts idle nodes first.
	var asc ClusterStatusResponse
	e.getJSON("alice", "/api/cluster_status?sort=cpu_alloc", &asc)
	if asc.Nodes[0].CPUsAlloc != 0 {
		t.Fatalf("ascending cpu_alloc starts at %d", asc.Nodes[0].CPUsAlloc)
	}
	// mem descending puts the busy node first.
	var desc ClusterStatusResponse
	e.getJSON("alice", "/api/cluster_status?sort=mem&order=desc", &desc)
	if desc.Nodes[0].AllocMemMB == 0 {
		t.Fatal("descending mem starts at an idle node")
	}
	// state sort groups by state name.
	var byState ClusterStatusResponse
	e.getJSON("alice", "/api/cluster_status?sort=state", &byState)
	for i := 1; i < len(byState.Nodes); i++ {
		if byState.Nodes[i].State < byState.Nodes[i-1].State {
			t.Fatalf("state sort violated at %d", i)
		}
	}
}

func TestJobStateColors(t *testing.T) {
	cases := map[slurm.JobState]string{
		slurm.StateRunning:     "blue",
		slurm.StateCompleting:  "blue",
		slurm.StateCompleted:   "green",
		slurm.StatePending:     "yellow",
		slurm.StateSuspended:   "yellow",
		slurm.StateCancelled:   "gray",
		slurm.StateFailed:      "red",
		slurm.StateTimeout:     "red",
		slurm.StateOutOfMemory: "red",
	}
	for state, want := range cases {
		if got := stateColor(state); got != want {
			t.Errorf("stateColor(%s) = %s, want %s", state, got, want)
		}
	}
}
