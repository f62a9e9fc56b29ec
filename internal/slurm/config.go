package slurm

import (
	"fmt"
	"time"

	"ooddash/internal/clock"
)

// NodeSpec describes a homogeneous block of nodes in a ClusterConfig.
// Names are generated as "<NamePrefix><index>" with zero-padded indices.
type NodeSpec struct {
	NamePrefix string
	Count      int
	CPUs       int
	MemMB      int64
	GPUs       int
	GPUType    string
	Features   []string
	Partitions []string
	OS         string
	Arch       string
}

// PartitionSpec describes one partition in a ClusterConfig. Its node list is
// derived from the NodeSpecs that name it.
type PartitionSpec struct {
	Name     string
	MaxTime  time.Duration
	Default  bool
	Priority int
}

// ClusterConfig is the declarative input to NewCluster.
type ClusterConfig struct {
	Name         string
	Nodes        []NodeSpec
	Partitions   []PartitionSpec
	QOS          []QOS
	Associations []Association
	// CompletedJobRetention controls how long finished jobs stay visible to
	// squeue before only sacct can see them. Zero uses the default (5 min).
	CompletedJobRetention time.Duration
}

// Validate reports the first configuration problem, if any.
func (cfg *ClusterConfig) Validate() error {
	if cfg.Name == "" {
		return fmt.Errorf("slurm: config: missing cluster name")
	}
	if len(cfg.Nodes) == 0 {
		return fmt.Errorf("slurm: config: no node specs")
	}
	if len(cfg.Partitions) == 0 {
		return fmt.Errorf("slurm: config: no partitions")
	}
	parts := make(map[string]bool, len(cfg.Partitions))
	for _, p := range cfg.Partitions {
		if p.Name == "" {
			return fmt.Errorf("slurm: config: partition with empty name")
		}
		if parts[p.Name] {
			return fmt.Errorf("slurm: config: duplicate partition %q", p.Name)
		}
		parts[p.Name] = true
	}
	for _, ns := range cfg.Nodes {
		if ns.Count <= 0 || ns.CPUs <= 0 || ns.MemMB <= 0 {
			return fmt.Errorf("slurm: config: node spec %q needs positive count/cpus/mem", ns.NamePrefix)
		}
		if len(ns.Partitions) == 0 {
			return fmt.Errorf("slurm: config: node spec %q belongs to no partition", ns.NamePrefix)
		}
		for _, p := range ns.Partitions {
			if !parts[p] {
				return fmt.Errorf("slurm: config: node spec %q names unknown partition %q", ns.NamePrefix, p)
			}
		}
	}
	for _, a := range cfg.Associations {
		if a.Account == "" {
			return fmt.Errorf("slurm: config: association with empty account")
		}
	}
	return nil
}

// Cluster bundles the daemon pair that together simulate one Slurm cluster.
type Cluster struct {
	Name  string
	Clock clock.Clock
	Ctl   *Controller
	DBD   *DBD
}

// NewCluster builds a cluster from the config, registering nodes,
// partitions, QOS levels, and associations. The clock may be a clock.Sim for
// deterministic runs; nil means the wall clock, for live servers.
func NewCluster(cfg ClusterConfig, clk clock.Clock) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clk == nil {
		clk = clock.Real{}
	}
	dbd := NewDBD()
	ctl := newController(cfg.Name, clk, dbd, cfg.CompletedJobRetention)

	partNodes := make(map[string][]string)
	boot := clk.Now().Add(-24 * time.Hour)
	for _, ns := range cfg.Nodes {
		width := len(fmt.Sprintf("%d", ns.Count))
		if width < 3 {
			width = 3
		}
		os := ns.OS
		if os == "" {
			os = "Linux 5.14.0-rcac"
		}
		arch := ns.Arch
		if arch == "" {
			arch = "x86_64"
		}
		for i := 1; i <= ns.Count; i++ {
			name := fmt.Sprintf("%s%0*d", ns.NamePrefix, width, i)
			n := &Node{
				Name:       name,
				Partitions: append([]string(nil), ns.Partitions...),
				CPUs:       ns.CPUs,
				MemMB:      ns.MemMB,
				GPUs:       ns.GPUs,
				GPUType:    ns.GPUType,
				Features:   append([]string(nil), ns.Features...),
				OS:         os,
				Arch:       arch,
				BootTime:   boot,
				State:      NodeIdle,
				LastBusy:   boot,
			}
			ctl.addNode(n)
			for _, p := range ns.Partitions {
				partNodes[p] = append(partNodes[p], name)
			}
		}
	}
	for _, ps := range cfg.Partitions {
		ctl.addPartition(&Partition{
			Name:     ps.Name,
			Nodes:    partNodes[ps.Name],
			MaxTime:  ps.MaxTime,
			State:    "UP",
			Default:  ps.Default,
			Priority: ps.Priority,
		})
	}
	for _, q := range cfg.QOS {
		ctl.addQOS(q)
	}
	for _, a := range cfg.Associations {
		dbd.AddAssociation(a)
	}
	return &Cluster{Name: cfg.Name, Clock: clk, Ctl: ctl, DBD: dbd}, nil
}

// DefaultConfig returns a mid-size cluster resembling the paper's deployment
// targets: standard CPU partitions plus a GPU partition and a debug/standby
// tier, with a handful of accounts. Tests and examples start from this.
func DefaultConfig() ClusterConfig {
	return ClusterConfig{
		Name: "anvil",
		Nodes: []NodeSpec{
			{NamePrefix: "a", Count: 384, CPUs: 128, MemMB: 256 * 1024,
				Features: []string{"milan", "avx2"}, Partitions: []string{"cpu", "standby", "debug"}},
			{NamePrefix: "b", Count: 96, CPUs: 128, MemMB: 1024 * 1024,
				Features: []string{"milan", "bigmem"}, Partitions: []string{"highmem", "standby"}},
			{NamePrefix: "g", Count: 32, CPUs: 64, MemMB: 512 * 1024, GPUs: 4, GPUType: "a100",
				Features: []string{"milan", "a100"}, Partitions: []string{"gpu"}},
		},
		Partitions: []PartitionSpec{
			{Name: "cpu", MaxTime: 96 * time.Hour, Default: true, Priority: 100},
			{Name: "highmem", MaxTime: 48 * time.Hour, Priority: 100},
			{Name: "gpu", MaxTime: 48 * time.Hour, Priority: 100},
			{Name: "standby", MaxTime: 4 * time.Hour, Priority: 0},
			{Name: "debug", MaxTime: 30 * time.Minute, Priority: 500},
		},
		QOS: []QOS{
			{Name: "normal", Priority: 0},
			{Name: "standby", Priority: -500, Preemptable: true},
			{Name: "debug", Priority: 1000, MaxJobsPerUser: 2},
		},
	}
}
