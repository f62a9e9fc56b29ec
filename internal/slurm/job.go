package slurm

import (
	"fmt"
	"strconv"
	"time"
)

// JobID identifies a job within one cluster. Array tasks get their own
// JobID plus an (ArrayJobID, ArrayTaskID) pair, mirroring Slurm.
type JobID int64

// Job is the controller's record of a single job (or array task).
//
// Fields are split into three groups: the immutable request, the scheduling
// state maintained by the controller, and the usage profile that drives the
// accounting/efficiency numbers once the job runs.
type Job struct {
	// Request (immutable after submit).
	ID          JobID
	Name        string
	User        string
	Account     string // Slurm association account ("allocation" in the paper)
	Partition   string
	QOS         string
	ReqTRES     TRES          // per-job request (total across nodes)
	TimeLimit   time.Duration // requested wall-clock limit
	SubmitTime  time.Time
	BeginTime   time.Time // earliest allowed start; zero means immediately
	Dependency  JobID     // job that must finish first; zero means none
	WorkDir     string
	StdoutPath  string
	StderrPath  string
	ArrayJobID  JobID // zero when not part of an array
	ArrayTaskID int   // valid only when ArrayJobID != 0
	// Constraint restricts placement to nodes advertising every listed
	// feature (comma-separated AND list, like sbatch --constraint).
	Constraint string
	// Interactive-app metadata used by Open OnDemand sessions (§7 session tab).
	InteractiveApp string // e.g. "jupyter", "rstudio"; empty for batch jobs
	SessionID      string // OOD session identifier; empty for batch jobs

	// Scheduling state.
	State        JobState
	Reason       PendingReason
	Priority     int64
	EligibleTime time.Time
	StartTime    time.Time
	EndTime      time.Time
	AllocTRES    TRES
	Nodes        []string
	ExitCode     int
	// Suspension bookkeeping: while suspended the job keeps its allocation
	// but its wall clock stops (Slurm's scontrol suspend semantics).
	SuspendedAt  time.Time     // nonzero while suspended
	SuspendTotal time.Duration // accumulated suspended time

	// Profile describes how the job behaves once started. The scheduler uses
	// ActualDuration to decide when the job finishes, and the accounting layer
	// derives efficiency metrics from the utilization fractions.
	Profile UsageProfile
}

// UsageProfile captures the resources a job will actually consume, as
// fractions of the request. This stands in for the measurements a production
// Slurm gathers via jobacct_gather; it lets the simulator reproduce the
// paper's efficiency columns (time/CPU/memory efficiency, §4.3).
type UsageProfile struct {
	ActualDuration time.Duration // wall time actually used (0 => runs to limit)
	CPUUtilization float64       // mean fraction of allocated CPU time used [0,1]
	MemUtilization float64       // peak RSS as a fraction of requested memory [0,1]
	GPUUtilization float64       // mean fraction of allocated GPU time used [0,1]
	FailureState   JobState      // terminal state; zero value means StateCompleted
	ExitCode       int           // exit code reported on completion
}

// terminalState returns the state the job ends in when it finishes on its own.
func (p UsageProfile) terminalState() JobState {
	if p.FailureState == "" {
		return StateCompleted
	}
	return p.FailureState
}

// IsArrayTask reports whether the job is a task of a job array.
func (j *Job) IsArrayTask() bool { return j.ArrayJobID != 0 }

// DisplayID returns the user-visible job ID: "1234_7" for array tasks,
// "1234" otherwise.
func (j *Job) DisplayID() string {
	if j.IsArrayTask() {
		return strconv.FormatInt(int64(j.ArrayJobID), 10) + "_" + strconv.Itoa(j.ArrayTaskID)
	}
	return strconv.FormatInt(int64(j.ID), 10)
}

// WaitTime returns how long the job waited (or has waited) in the queue.
// For running/finished jobs this is start-submit; for pending jobs it is
// now-submit.
func (j *Job) WaitTime(now time.Time) time.Duration {
	switch {
	case !j.StartTime.IsZero():
		return j.StartTime.Sub(j.SubmitTime)
	case now.After(j.SubmitTime):
		return now.Sub(j.SubmitTime)
	default:
		return 0
	}
}

// Elapsed returns the job's wall time so far (or total, once finished),
// excluding time spent suspended.
func (j *Job) Elapsed(now time.Time) time.Duration {
	if j.StartTime.IsZero() {
		return 0
	}
	end := j.EndTime
	if end.IsZero() {
		end = now
	}
	if end.Before(j.StartTime) {
		return 0
	}
	elapsed := end.Sub(j.StartTime) - j.SuspendTotal
	if !j.SuspendedAt.IsZero() && end.After(j.SuspendedAt) {
		elapsed -= end.Sub(j.SuspendedAt)
	}
	if elapsed < 0 {
		return 0
	}
	return elapsed
}

// CPUTimeUsed returns core-seconds actually consumed, derived from the
// usage profile. Valid once the job has started.
func (j *Job) CPUTimeUsed(now time.Time) time.Duration {
	elapsed := j.Elapsed(now)
	return time.Duration(float64(elapsed) * float64(j.AllocTRES.CPUs) * j.Profile.CPUUtilization)
}

// GPUHoursUsed returns GPU-hours consumed so far.
func (j *Job) GPUHoursUsed(now time.Time) float64 {
	if j.AllocTRES.GPUs == 0 {
		return 0
	}
	elapsed := j.Elapsed(now)
	return elapsed.Hours() * float64(j.AllocTRES.GPUs)
}

// MaxRSSMB returns the peak resident set size in MiB implied by the profile.
func (j *Job) MaxRSSMB() int64 {
	return int64(float64(j.ReqTRES.MemMB) * j.Profile.MemUtilization)
}

// Clone returns a deep copy of the job, safe to hand to readers while the
// controller keeps mutating its own copy.
func (j *Job) Clone() *Job {
	cp := *j
	cp.Nodes = append([]string(nil), j.Nodes...)
	return &cp
}

// SubmitRequest is the argument to Controller.Submit. Only the request
// fields may be set; the controller fills in the scheduling state.
type SubmitRequest struct {
	Name           string
	User           string
	Account        string
	Partition      string
	QOS            string
	ReqTRES        TRES
	TimeLimit      time.Duration
	BeginTime      time.Time
	Dependency     JobID
	WorkDir        string
	StdoutPath     string
	StderrPath     string
	Constraint     string // feature AND-list, like sbatch --constraint
	InteractiveApp string
	SessionID      string
	ArraySize      int // >1 submits a job array with this many tasks
	Hold           bool
	Profile        UsageProfile
}

// Validate reports the first problem with the request, if any.
func (r *SubmitRequest) Validate() error {
	switch {
	case r.User == "":
		return fmt.Errorf("slurm: submit: missing user")
	case r.Account == "":
		return fmt.Errorf("slurm: submit: missing account")
	case r.Partition == "":
		return fmt.Errorf("slurm: submit: missing partition")
	case r.ReqTRES.CPUs <= 0:
		return fmt.Errorf("slurm: submit: request must include at least one CPU")
	case r.ReqTRES.Nodes < 0 || r.ReqTRES.GPUs < 0 || r.ReqTRES.MemMB < 0:
		return fmt.Errorf("slurm: submit: negative resource request")
	case r.TimeLimit <= 0:
		return fmt.Errorf("slurm: submit: missing time limit")
	case r.ArraySize < 0:
		return fmt.Errorf("slurm: submit: negative array size")
	}
	return nil
}
