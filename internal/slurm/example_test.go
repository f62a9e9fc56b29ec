package slurm_test

import (
	"fmt"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/slurm"
)

// A minimal cluster: one partition, one account, one job through its
// whole lifecycle.
func Example() {
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cluster, err := slurm.NewCluster(slurm.ClusterConfig{
		Name: "demo",
		Nodes: []slurm.NodeSpec{
			{NamePrefix: "n", Count: 2, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"cpu"}},
		},
		Partitions: []slurm.PartitionSpec{{Name: "cpu", MaxTime: 4 * time.Hour, Default: true}},
		QOS:        []slurm.QOS{{Name: "normal"}},
		Associations: []slurm.Association{
			{Account: "lab"}, {Account: "lab", User: "ada"},
		},
	}, clock)
	if err != nil {
		panic(err)
	}

	id, err := cluster.Ctl.Submit(slurm.SubmitRequest{
		Name: "hello", User: "ada", Account: "lab", Partition: "cpu", QOS: "normal",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 2048}, TimeLimit: time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 30 * time.Minute,
			CPUUtilization: 0.9, MemUtilization: 0.5},
	})
	if err != nil {
		panic(err)
	}
	cluster.Ctl.Tick()
	fmt.Println("after submit:", cluster.Ctl.Job(id).State)

	clock.Advance(31 * time.Minute)
	cluster.Ctl.Tick()
	fmt.Println("after 31m:", cluster.Ctl.Job(id).State)
	fmt.Println("accounting has it:", cluster.DBD.Job(id).State)
	// Output:
	// after submit: RUNNING
	// after 31m: COMPLETED
	// accounting has it: COMPLETED
}

func ExampleNodeNameRange() {
	fmt.Println(slurm.NodeNameRange([]string{"a001", "a002", "a003", "a007", "login"}))
	// Output: a[001-003],a007,login
}

func ExampleExpandNodeRange() {
	nodes, _ := slurm.ExpandNodeRange("g[001-003],login")
	fmt.Println(nodes)
	// Output: [g001 g002 g003 login]
}

func ExampleTRES_String() {
	t := slurm.TRES{CPUs: 16, MemMB: 64 * 1024, GPUs: 2, Nodes: 1}
	fmt.Println(t)
	// Output: cpu=16,mem=65536M,gres/gpu=2,node=1
}
