package slurmcli

import (
	"testing"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/slurm"
)

// benchRunner builds a runner over a moderately busy cluster.
func benchRunner(b *testing.B) (*SimRunner, *slurm.Cluster) {
	b.Helper()
	clock := clock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	cfg := slurm.ClusterConfig{
		Name: "bench",
		Nodes: []slurm.NodeSpec{
			{NamePrefix: "a", Count: 128, CPUs: 128, MemMB: 256 * 1024, Partitions: []string{"cpu"}},
		},
		Partitions:   []slurm.PartitionSpec{{Name: "cpu", MaxTime: 96 * time.Hour, Default: true}},
		QOS:          []slurm.QOS{{Name: "normal"}},
		Associations: []slurm.Association{{Account: "lab"}, {Account: "lab", User: "u"}},
	}
	cl, err := slurm.NewCluster(cfg, clock)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := cl.Ctl.Submit(slurm.SubmitRequest{
			Name: "bench", User: "u", Account: "lab", Partition: "cpu", QOS: "normal",
			ReqTRES: slurm.TRES{CPUs: 16, MemMB: 8192}, TimeLimit: 12 * time.Hour,
			Profile: slurm.UsageProfile{ActualDuration: 6 * time.Hour,
				CPUUtilization: 0.8, MemUtilization: 0.5},
		}); err != nil {
			b.Fatal(err)
		}
	}
	cl.Ctl.Tick()
	return NewSimRunner(cl), cl
}

func BenchmarkSqueueFormatAndParse(b *testing.B) {
	r, _ := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := Squeue(r, SqueueOptions{User: "u"})
		if err != nil || len(entries) == 0 {
			b.Fatalf("entries=%d err=%v", len(entries), err)
		}
	}
}

func BenchmarkSacctFormatAndParse(b *testing.B) {
	r, _ := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Sacct(r, SacctOptions{User: "u"})
		if err != nil || len(rows) == 0 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

func BenchmarkShowAllNodes(b *testing.B) {
	r, _ := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, err := ShowAllNodes(r)
		if err != nil || len(nodes) != 128 {
			b.Fatalf("nodes=%d err=%v", len(nodes), err)
		}
	}
}

func BenchmarkSinfoJSON(b *testing.B) {
	r, _ := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts, err := Sinfo(r)
		if err != nil || len(parts) == 0 {
			b.Fatalf("parts=%d err=%v", len(parts), err)
		}
	}
}

// Parse-only benchmarks: the command output is produced once, so allocs/op
// measure just the parser. These guard the forEachLine/splitInto conversion
// against regressions back to a Split-per-line pattern.

func BenchmarkParseSqueueOutput(b *testing.B) {
	r, _ := benchRunner(b)
	out, err := r.Run("squeue", "-h", "-t", "all", "-o", squeueParseFormat)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(out)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := parseSqueueOutput(out)
		if err != nil || len(entries) == 0 {
			b.Fatalf("entries=%d err=%v", len(entries), err)
		}
	}
}

func BenchmarkParseSacctOutput(b *testing.B) {
	r, _ := benchRunner(b)
	out, err := r.Run("sacct", "-P", "-n", "-X", "--format", sacctQueryFields, "-a")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(out)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := parseSacctOutput(out)
		if err != nil || len(rows) == 0 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

func BenchmarkFormatDuration(b *testing.B) {
	d := 26*time.Hour + 13*time.Minute + 7*time.Second
	for i := 0; i < b.N; i++ {
		if s := FormatDuration(d); s == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkParseDuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseDuration("1-02:13:07"); err != nil {
			b.Fatal(err)
		}
	}
}
