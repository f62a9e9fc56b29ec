package slurmrest

import (
	"math"
	"time"

	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// Wire types: the JSON shapes the REST API serves. The server builds them
// directly from the daemons' state structs — no text formatting — and the
// client decodes them back into internal/slurmcli's typed rows, so both
// backends hand the dashboard identical values.
//
// Where the CLI pipeline loses precision (timestamps and durations print
// at second granularity, CPU load at two decimals, GPU utilization at one),
// the builders here apply the same truncation, keeping the two backends
// byte-equivalent — the property the equivalence test pins, and what makes
// the A/B benchmark a pure transport/encoding comparison.

// Job is one live-queue record (/slurm/v1/jobs).
type Job struct {
	JobID       string `json:"job_id"` // display ID; "1234_7" for array tasks
	Name        string `json:"name"`
	User        string `json:"user_name"`
	Account     string `json:"account"`
	Partition   string `json:"partition"`
	QOS         string `json:"qos"`
	State       string `json:"job_state"`
	Reason      string `json:"state_reason"`
	SubmitTime  int64  `json:"submit_time"` // unix seconds; 0 = unset
	StartTime   int64  `json:"start_time"`
	ElapsedSecs int64  `json:"elapsed_seconds"`
	LimitSecs   int64  `json:"time_limit_seconds"`
	Nodes       int    `json:"node_count"`
	CPUs        int    `json:"cpus"`
	MemMB       int64  `json:"memory_mb"`
	GPUsPerNode int    `json:"gpus_per_node"`
	NodeList    string `json:"nodes"` // node range, or "(Reason)" when pending
	// Redacted marks a record whose identifying fields were hidden because
	// the requesting token may not view this job in full.
	Redacted bool `json:"redacted,omitempty"`
}

// JobsResponse is the /slurm/v1/jobs envelope.
type JobsResponse struct {
	Jobs []Job `json:"jobs"`
}

// unixOrZero converts a timestamp to wire form at the CLI's second
// granularity; the zero time stays 0 (squeue's "Unknown").
func unixOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.Unix()
}

// timeFromUnix is the inverse of unixOrZero, always UTC like ParseTime.
func timeFromUnix(s int64) time.Time {
	if s == 0 {
		return time.Time{}
	}
	return time.Unix(s, 0).UTC()
}

// jobFromLive builds a queue record from a controller job, mirroring the
// squeue format verbs the typed CLI client requests (squeueParseFormat).
func jobFromLive(j *slurm.Job, now time.Time) Job {
	nodes := j.ReqTRES.Nodes
	if j.AllocTRES.Nodes > 0 {
		nodes = j.AllocTRES.Nodes
	}
	cpus := j.ReqTRES.CPUs
	if j.AllocTRES.CPUs > 0 {
		cpus = j.AllocTRES.CPUs
	}
	nodeList := slurm.NodeNameRange(j.Nodes)
	if j.State == slurm.StatePending {
		nodeList = "(" + string(j.Reason) + ")"
	}
	return Job{
		JobID:       j.DisplayID(),
		Name:        j.Name,
		User:        j.User,
		Account:     j.Account,
		Partition:   j.Partition,
		QOS:         j.QOS,
		State:       string(j.State),
		Reason:      string(j.Reason),
		SubmitTime:  unixOrZero(j.SubmitTime),
		StartTime:   unixOrZero(j.StartTime),
		ElapsedSecs: int64(j.Elapsed(now) / time.Second),
		LimitSecs:   int64(j.TimeLimit / time.Second),
		Nodes:       nodes,
		CPUs:        cpus,
		MemMB:       j.ReqTRES.MemMB,
		GPUsPerNode: j.ReqTRES.GPUs,
		NodeList:    nodeList,
	}
}

// QueueEntry converts the wire record to the CLI client's row type.
func (j *Job) QueueEntry() slurmcli.QueueEntry {
	return slurmcli.QueueEntry{
		JobID:       j.JobID,
		Name:        j.Name,
		User:        j.User,
		Account:     j.Account,
		Partition:   j.Partition,
		QOS:         j.QOS,
		State:       slurm.JobState(j.State),
		Reason:      slurm.PendingReason(j.Reason),
		SubmitTime:  timeFromUnix(j.SubmitTime),
		StartTime:   timeFromUnix(j.StartTime),
		Elapsed:     time.Duration(j.ElapsedSecs) * time.Second,
		TimeLimit:   time.Duration(j.LimitSecs) * time.Second,
		Nodes:       j.Nodes,
		CPUs:        j.CPUs,
		MemMB:       j.MemMB,
		GPUsPerNode: j.GPUsPerNode,
		NodeList:    j.NodeList,
	}
}

// AccountingJob is one accounting record (/slurm/v1/accounting).
type AccountingJob struct {
	RawID       int64   `json:"job_id"`
	JobID       string  `json:"job_id_display"`
	Name        string  `json:"name"`
	User        string  `json:"user_name"`
	Account     string  `json:"account"`
	Partition   string  `json:"partition"`
	QOS         string  `json:"qos"`
	State       string  `json:"job_state"`
	Reason      string  `json:"state_reason"`
	SubmitTime  int64   `json:"submit_time"`
	StartTime   int64   `json:"start_time"`
	EndTime     int64   `json:"end_time"`
	ElapsedSecs int64   `json:"elapsed_seconds"`
	LimitSecs   int64   `json:"time_limit_seconds"`
	ReqCPUs     int     `json:"required_cpus"`
	AllocCPUs   int     `json:"allocated_cpus"`
	ReqMemMB    int64   `json:"required_memory_mb"`
	AllocTRES   string  `json:"allocated_tres"`
	NodeList    string  `json:"nodes"`
	ExitCode    int     `json:"exit_code"`
	MaxRSSMB    int64   `json:"max_rss_mb"`
	TotalCPUSec int64   `json:"total_cpu_seconds"`
	GPUUtil     float64 `json:"gpu_utilization_percent"` // -1 when not measured
	Comment     string  `json:"comment,omitempty"`
	WorkDir     string  `json:"working_directory,omitempty"`
	Redacted    bool    `json:"redacted,omitempty"`
}

// AccountingResponse is the /slurm/v1/accounting envelope.
type AccountingResponse struct {
	Jobs []AccountingJob `json:"jobs"`
}

// accountingFromJob builds an accounting record from a DBD job, mirroring
// the sacct field list the typed CLI client requests (sacctQueryFields).
func accountingFromJob(j *slurm.Job, now time.Time) AccountingJob {
	nodeList := "None assigned"
	if len(j.Nodes) > 0 {
		nodeList = slurm.NodeNameRange(j.Nodes)
	}
	var maxRSS int64
	if !j.StartTime.IsZero() {
		maxRSS = j.MaxRSSMB()
	}
	gpuUtil := -1.0
	if j.AllocTRES.GPUs > 0 && !j.StartTime.IsZero() {
		// The CLI prints gres/gpuutil at one decimal; match its rounding.
		gpuUtil = math.Round(j.Profile.GPUUtilization*1000) / 10
	}
	comment := ""
	if j.InteractiveApp != "" {
		comment = "ood:app=" + j.InteractiveApp + ";session=" + j.SessionID
	}
	return AccountingJob{
		RawID:       int64(j.ID),
		JobID:       j.DisplayID(),
		Name:        j.Name,
		User:        j.User,
		Account:     j.Account,
		Partition:   j.Partition,
		QOS:         j.QOS,
		State:       string(j.State),
		Reason:      string(j.Reason),
		SubmitTime:  unixOrZero(j.SubmitTime),
		StartTime:   unixOrZero(j.StartTime),
		EndTime:     unixOrZero(j.EndTime),
		ElapsedSecs: int64(j.Elapsed(now) / time.Second),
		LimitSecs:   int64(j.TimeLimit / time.Second),
		ReqCPUs:     j.ReqTRES.CPUs,
		AllocCPUs:   j.AllocTRES.CPUs,
		ReqMemMB:    j.ReqTRES.MemMB,
		AllocTRES:   j.AllocTRES.String(),
		NodeList:    nodeList,
		ExitCode:    j.ExitCode,
		MaxRSSMB:    maxRSS,
		TotalCPUSec: int64(j.CPUTimeUsed(now) / time.Second),
		GPUUtil:     gpuUtil,
		Comment:     comment,
		WorkDir:     j.WorkDir,
	}
}

// SacctRow converts the wire record to the CLI client's row type.
func (a *AccountingJob) SacctRow() (slurmcli.SacctRow, error) {
	tres, err := slurm.ParseTRES(a.AllocTRES)
	if err != nil {
		return slurmcli.SacctRow{}, err
	}
	return slurmcli.SacctRow{
		RawID:          slurm.JobID(a.RawID),
		JobID:          a.JobID,
		Name:           a.Name,
		User:           a.User,
		Account:        a.Account,
		Partition:      a.Partition,
		QOS:            a.QOS,
		State:          slurm.JobState(a.State),
		Reason:         slurm.PendingReason(a.Reason),
		SubmitTime:     timeFromUnix(a.SubmitTime),
		StartTime:      timeFromUnix(a.StartTime),
		EndTime:        timeFromUnix(a.EndTime),
		Elapsed:        time.Duration(a.ElapsedSecs) * time.Second,
		TimeLimit:      time.Duration(a.LimitSecs) * time.Second,
		ReqCPUs:        a.ReqCPUs,
		AllocCPUs:      a.AllocCPUs,
		ReqMemMB:       a.ReqMemMB,
		AllocTRES:      tres,
		NodeList:       a.NodeList,
		ExitCode:       a.ExitCode,
		MaxRSSMB:       a.MaxRSSMB,
		TotalCPU:       time.Duration(a.TotalCPUSec) * time.Second,
		GPUUtilPercent: a.GPUUtil,
		Comment:        a.Comment,
		WorkDir:        a.WorkDir,
	}, nil
}

// JobDetail is the full single-job view (/slurm/v1/jobs/{id}).
type JobDetail struct {
	ID           int64  `json:"job_id"`
	Name         string `json:"name"`
	User         string `json:"user_name"`
	Account      string `json:"account"`
	QOS          string `json:"qos"`
	State        string `json:"job_state"`
	Reason       string `json:"state_reason"`
	ExitCode     int    `json:"exit_code"`
	SubmitTime   int64  `json:"submit_time"`
	EligibleTime int64  `json:"eligible_time"`
	StartTime    int64  `json:"start_time"`
	EndTime      int64  `json:"end_time"`
	RunSecs      int64  `json:"run_time_seconds"`
	LimitSecs    int64  `json:"time_limit_seconds"`
	Partition    string `json:"partition"`
	Priority     int64  `json:"priority"`
	NodeList     string `json:"nodes"`
	NumNodes     int    `json:"node_count"`
	NumCPUs      int    `json:"cpus"`
	ReqTRES      string `json:"required_tres"`
	AllocTRES    string `json:"allocated_tres"`
	MemMB        int64  `json:"memory_mb"`
	Constraint   string `json:"constraints,omitempty"`
	WorkDir      string `json:"working_directory,omitempty"`
	StdoutPath   string `json:"standard_output,omitempty"`
	StderrPath   string `json:"standard_error,omitempty"`
	ArrayJobID   int64  `json:"array_job_id,omitempty"`
	ArrayTaskID  int    `json:"array_task_id,omitempty"`
	Comment      string `json:"comment,omitempty"`
	Redacted     bool   `json:"redacted,omitempty"`
}

// detailFromJob builds the single-job view, mirroring scontrol show job.
func detailFromJob(j *slurm.Job, now time.Time) JobDetail {
	comment := ""
	if j.InteractiveApp != "" {
		comment = "ood:app=" + j.InteractiveApp + ";session=" + j.SessionID
	}
	return JobDetail{
		ID:           int64(j.ID),
		Name:         j.Name,
		User:         j.User,
		Account:      j.Account,
		QOS:          j.QOS,
		State:        string(j.State),
		Reason:       string(j.Reason),
		ExitCode:     j.ExitCode,
		SubmitTime:   unixOrZero(j.SubmitTime),
		EligibleTime: unixOrZero(j.EligibleTime),
		StartTime:    unixOrZero(j.StartTime),
		EndTime:      unixOrZero(j.EndTime),
		RunSecs:      int64(j.Elapsed(now) / time.Second),
		LimitSecs:    int64(j.TimeLimit / time.Second),
		Partition:    j.Partition,
		Priority:     j.Priority,
		NodeList:     slurm.NodeNameRange(j.Nodes),
		NumNodes:     j.ReqTRES.Nodes,
		NumCPUs:      j.ReqTRES.CPUs,
		ReqTRES:      j.ReqTRES.String(),
		AllocTRES:    j.AllocTRES.String(),
		MemMB:        j.ReqTRES.MemMB,
		Constraint:   j.Constraint,
		WorkDir:      j.WorkDir,
		StdoutPath:   j.StdoutPath,
		StderrPath:   j.StderrPath,
		ArrayJobID:   int64(j.ArrayJobID),
		ArrayTaskID:  j.ArrayTaskID,
		Comment:      comment,
	}
}

// CLIDetail converts the wire record to the CLI client's detail type.
func (d *JobDetail) CLIDetail() (*slurmcli.JobDetail, error) {
	req, err := slurm.ParseTRES(d.ReqTRES)
	if err != nil {
		return nil, err
	}
	alloc, err := slurm.ParseTRES(d.AllocTRES)
	if err != nil {
		return nil, err
	}
	return &slurmcli.JobDetail{
		ID:           slurm.JobID(d.ID),
		Name:         d.Name,
		User:         d.User,
		Account:      d.Account,
		QOS:          d.QOS,
		State:        slurm.JobState(d.State),
		Reason:       slurm.PendingReason(d.Reason),
		ExitCode:     d.ExitCode,
		SubmitTime:   timeFromUnix(d.SubmitTime),
		EligibleTime: timeFromUnix(d.EligibleTime),
		StartTime:    timeFromUnix(d.StartTime),
		EndTime:      timeFromUnix(d.EndTime),
		RunTime:      time.Duration(d.RunSecs) * time.Second,
		TimeLimit:    time.Duration(d.LimitSecs) * time.Second,
		Partition:    d.Partition,
		Priority:     d.Priority,
		NodeList:     d.NodeList,
		NumNodes:     d.NumNodes,
		NumCPUs:      d.NumCPUs,
		ReqTRES:      req,
		AllocTRES:    alloc,
		MemMB:        d.MemMB,
		Constraint:   d.Constraint,
		WorkDir:      d.WorkDir,
		StdoutPath:   d.StdoutPath,
		StderrPath:   d.StderrPath,
		ArrayJobID:   slurm.JobID(d.ArrayJobID),
		ArrayTaskID:  d.ArrayTaskID,
		Comment:      d.Comment,
	}, nil
}

// Node is one node record (/slurm/v1/nodes).
type Node struct {
	Name       string   `json:"name"`
	Arch       string   `json:"architecture"`
	OS         string   `json:"operating_system"`
	State      string   `json:"state"`
	Partitions []string `json:"partitions"`
	Features   []string `json:"features"`
	CPUTotal   int      `json:"cpus"`
	CPUAlloc   int      `json:"alloc_cpus"`
	CPULoad    float64  `json:"cpu_load"`
	MemMB      int64    `json:"real_memory_mb"`
	AllocMemMB int64    `json:"alloc_memory_mb"`
	GPUTotal   int      `json:"gpus"`
	GPUAlloc   int      `json:"alloc_gpus"`
	GPUType    string   `json:"gpu_type,omitempty"`
	BootTime   int64    `json:"boot_time"`
	LastBusy   int64    `json:"last_busy"`
	Reason     string   `json:"reason,omitempty"`
}

// NodesResponse is the /slurm/v1/nodes envelope.
type NodesResponse struct {
	Nodes []Node `json:"nodes"`
}

// nodeFromState builds a node record, mirroring scontrol show node (CPU
// load at the CLI's two-decimal precision).
func nodeFromState(n *slurm.Node) Node {
	return Node{
		Name:       n.Name,
		Arch:       n.Arch,
		OS:         n.OS,
		State:      string(n.EffectiveState()),
		Partitions: n.Partitions,
		Features:   n.Features,
		CPUTotal:   n.CPUs,
		CPUAlloc:   n.Alloc.CPUs,
		CPULoad:    math.Round(n.CPULoad*100) / 100,
		MemMB:      n.MemMB,
		AllocMemMB: n.Alloc.MemMB,
		GPUTotal:   n.GPUs,
		GPUAlloc:   n.Alloc.GPUs,
		GPUType:    n.GPUType,
		BootTime:   unixOrZero(n.BootTime),
		LastBusy:   unixOrZero(n.LastBusy),
		Reason:     n.StateReason,
	}
}

// NodeDetail converts the wire record to the CLI client's detail type.
func (n *Node) NodeDetail() *slurmcli.NodeDetail {
	return &slurmcli.NodeDetail{
		Name:       n.Name,
		Arch:       n.Arch,
		OS:         n.OS,
		State:      slurm.NodeState(n.State),
		Partitions: n.Partitions,
		Features:   n.Features,
		CPUTotal:   n.CPUTotal,
		CPUAlloc:   n.CPUAlloc,
		CPULoad:    n.CPULoad,
		MemMB:      n.MemMB,
		AllocMemMB: n.AllocMemMB,
		GPUTotal:   n.GPUTotal,
		GPUAlloc:   n.GPUAlloc,
		GPUType:    n.GPUType,
		BootTime:   timeFromUnix(n.BootTime),
		LastBusy:   timeFromUnix(n.LastBusy),
		Reason:     n.Reason,
	}
}

// Partition is one partition utilization record (/slurm/v1/partitions) —
// the same shape sinfo --json serves.
type Partition struct {
	Name        string         `json:"name"`
	State       string         `json:"state"`
	TotalNodes  int            `json:"total_nodes"`
	TotalCPUs   int            `json:"total_cpus"`
	AllocCPUs   int            `json:"alloc_cpus"`
	TotalGPUs   int            `json:"total_gpus"`
	AllocGPUs   int            `json:"alloc_gpus"`
	PendingJobs int            `json:"pending_jobs"`
	RunningJobs int            `json:"running_jobs"`
	NodeStates  map[string]int `json:"node_states"`
}

// PartitionsResponse is the /slurm/v1/partitions envelope.
type PartitionsResponse struct {
	Partitions []Partition `json:"partitions"`
}

// partitionFromUtil builds a partition record from the controller's
// utilization summary.
func partitionFromUtil(u slurm.PartitionUtilization) Partition {
	states := make(map[string]int, len(u.NodesByState))
	for st, n := range u.NodesByState {
		states[string(st)] = n
	}
	return Partition{
		Name:        u.Name,
		State:       u.State,
		TotalNodes:  u.TotalNodes,
		TotalCPUs:   u.TotalCPUs,
		AllocCPUs:   u.AllocCPUs,
		TotalGPUs:   u.TotalGPUs,
		AllocGPUs:   u.AllocGPUs,
		PendingJobs: u.PendingJobs,
		RunningJobs: u.RunningJobs,
		NodeStates:  states,
	}
}

// PartitionStatus converts the wire record to the CLI client's type.
func (p *Partition) PartitionStatus() slurmcli.PartitionStatus {
	return slurmcli.PartitionStatus{
		Name:        p.Name,
		State:       p.State,
		TotalNodes:  p.TotalNodes,
		TotalCPUs:   p.TotalCPUs,
		AllocCPUs:   p.AllocCPUs,
		TotalGPUs:   p.TotalGPUs,
		AllocGPUs:   p.AllocGPUs,
		PendingJobs: p.PendingJobs,
		RunningJobs: p.RunningJobs,
		NodeStates:  p.NodeStates,
	}
}

// DaemonDiag is one daemon's statistics section (/slurm/v1/diag).
type DaemonDiag struct {
	Name      string           `json:"name"`
	Records   int64            `json:"records"`
	RPCCounts map[string]int64 `json:"rpc_counts"`
}

// DiagResponse is the /slurm/v1/diag envelope.
type DiagResponse struct {
	Slurmctld DaemonDiag `json:"slurmctld"`
	Slurmdbd  DaemonDiag `json:"slurmdbd"`
}

// CLIDiag converts the wire record to the CLI client's type.
func (d *DaemonDiag) CLIDiag() slurmcli.DaemonDiag {
	return slurmcli.DaemonDiag{Name: d.Name, Records: d.Records, RPCCounts: d.RPCCounts}
}
