package slurm

import (
	"fmt"
	"testing"
	"time"

	"ooddash/internal/clock"
)

// benchCluster builds a cluster with the given node count and fills it to
// ~70% with running jobs plus a pending backlog.
func benchCluster(b *testing.B, nodes, runningJobs, pendingJobs int) (*Cluster, *clock.Sim) {
	b.Helper()
	clock := clock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	cfg := ClusterConfig{
		Name: "bench",
		Nodes: []NodeSpec{
			{NamePrefix: "a", Count: nodes, CPUs: 128, MemMB: 256 * 1024, Partitions: []string{"cpu"}},
		},
		Partitions:   []PartitionSpec{{Name: "cpu", MaxTime: 96 * time.Hour, Default: true}},
		QOS:          []QOS{{Name: "normal"}},
		Associations: []Association{{Account: "lab"}, {Account: "lab", User: "u"}},
	}
	cl, err := NewCluster(cfg, clock)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < runningJobs+pendingJobs; i++ {
		if _, err := cl.Ctl.Submit(SubmitRequest{
			Name: fmt.Sprintf("bench-%d", i), User: "u", Account: "lab",
			Partition: "cpu", QOS: "normal",
			ReqTRES:   TRES{CPUs: 16, MemMB: 16 * 1024},
			TimeLimit: 12 * time.Hour,
			Profile:   UsageProfile{ActualDuration: 6 * time.Hour, CPUUtilization: 0.8, MemUtilization: 0.5},
		}); err != nil {
			b.Fatal(err)
		}
	}
	cl.Ctl.Tick()
	return cl, clock
}

func BenchmarkTickSteadyState(b *testing.B) {
	for _, size := range []struct{ nodes, running, pending int }{
		{64, 256, 50},
		{512, 2048, 500},
	} {
		name := fmt.Sprintf("nodes=%d/backlog=%d", size.nodes, size.pending)
		b.Run(name, func(b *testing.B) {
			cl, clock := benchCluster(b, size.nodes, size.running, size.pending)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.Advance(time.Second)
				cl.Ctl.Tick()
			}
		})
	}
}

func BenchmarkSubmit(b *testing.B) {
	cl, _ := benchCluster(b, 64, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Ctl.Submit(SubmitRequest{
			Name: "s", User: "u", Account: "lab", Partition: "cpu", QOS: "normal",
			ReqTRES: TRES{CPUs: 1, MemMB: 512}, TimeLimit: time.Hour,
			Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 0.5, MemUtilization: 0.5},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSqueueQuery(b *testing.B) {
	cl, _ := benchCluster(b, 512, 2048, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if jobs := cl.Ctl.Jobs(LiveJobFilter{User: "u"}); len(jobs) == 0 {
			b.Fatal("empty queue")
		}
	}
}

func BenchmarkUtilization(b *testing.B) {
	cl, _ := benchCluster(b, 512, 2048, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if util := cl.Ctl.Utilization(); len(util) == 0 {
			b.Fatal("no partitions")
		}
	}
}

func BenchmarkNodesSnapshot(b *testing.B) {
	cl, _ := benchCluster(b, 512, 1024, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nodes := cl.Ctl.Nodes(); len(nodes) != 512 {
			b.Fatal("bad node count")
		}
	}
}

func BenchmarkDBDQueryWindow(b *testing.B) {
	cl, clock := benchCluster(b, 64, 256, 0)
	// Age jobs into history.
	for i := 0; i < 50; i++ {
		clock.Advance(time.Hour)
		cl.Ctl.Tick()
	}
	now := clock.Now()
	filter := JobFilter{Users: []string{"u"}, Start: now.Add(-24 * time.Hour), End: now}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.DBD.Jobs(filter, now)
	}
}

func BenchmarkEventsDeltaPoll(b *testing.B) {
	cl, _ := benchCluster(b, 64, 256, 0)
	head := cl.Ctl.LastEventSeq()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if evs := cl.Ctl.EventsSince(head, 0); len(evs) != 0 {
			b.Fatal("unexpected events")
		}
	}
}

func BenchmarkNodeNameRange(b *testing.B) {
	names := make([]string, 512)
	for i := range names {
		names[i] = fmt.Sprintf("a%03d", i+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := NodeNameRange(names); out == "" {
			b.Fatal("empty range")
		}
	}
}
