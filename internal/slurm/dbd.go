package slurm

import (
	"sort"
	"sync"
	"time"
)

// DBD simulates slurmdbd, Slurm's accounting database daemon. The controller
// streams job events into it; sacct-style queries read from it. Keeping the
// two daemons separate matters for reproducing the paper's load argument:
// history queries (sacct) are cheap for the controller because they never
// touch it.
type DBD struct {
	mu     sync.RWMutex
	jobs   map[JobID]*Job
	order  []JobID // ascending submit time (ties broken by ID)
	assocs map[AssocKey]*Association
	stats  *DaemonStats

	// rollups holds the incremental time-bucketed aggregates maintained as
	// jobs reach a terminal state (see rollup.go). Guarded by mu.
	rollups rollupStore

	// healthGate simulates accounting-database outages; sacct-style queries
	// are gated at the command surface (slurmcli.SimRunner).
	healthGate healthGate
}

// NewDBD returns an empty accounting database.
func NewDBD() *DBD {
	return &DBD{
		jobs:    make(map[JobID]*Job),
		assocs:  make(map[AssocKey]*Association),
		stats:   NewDaemonStats("slurmdbd"),
		rollups: newRollupStore(),
	}
}

// Stats exposes the daemon's RPC counters.
func (d *DBD) Stats() *DaemonStats { return d.stats }

// AddAssociation registers an association record. Account-level records have
// an empty User. Called during cluster construction.
func (d *DBD) AddAssociation(a Association) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cp := a
	d.assocs[a.Key()] = &cp
}

// recordJob upserts the accounting copy of a job. Internal streaming from
// the controller: not counted as a client RPC.
func (d *DBD) recordJob(j *Job) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old, exists := d.jobs[j.ID]
	if !exists {
		d.order = append(d.order, j.ID)
		// Keep order sorted; submissions arrive roughly in order so the
		// common case is an append.
		for i := len(d.order) - 1; i > 0; i-- {
			a, b := d.jobs[d.order[i-1]], j
			if a == nil || !a.SubmitTime.After(b.SubmitTime) {
				break
			}
			d.order[i-1], d.order[i] = d.order[i], d.order[i-1]
		}
	}
	// A job folds into the rollups exactly once: on its transition into a
	// terminal state. Requeued jobs re-enter as non-terminal and fold again
	// when they finish for real.
	if (old == nil || !old.State.Terminal()) && j.State.Terminal() && !j.EndTime.IsZero() {
		d.rollups.ingest(j)
	}
	d.jobs[j.ID] = j.Clone()
}

// chargeUsage accumulates finished-job usage onto the user and account
// associations. Internal streaming from the controller.
func (d *DBD) chargeUsage(j *Job, now time.Time) {
	cpuHours := j.CPUTimeUsed(now).Hours()
	gpuHours := j.GPUHoursUsed(now)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, key := range []AssocKey{
		{Account: j.Account, User: j.User},
		{Account: j.Account},
	} {
		a := d.assocs[key]
		if a == nil {
			a = &Association{Account: key.Account, User: key.User}
			d.assocs[key] = a
		}
		a.CPUTimeUsed += cpuHours
		a.GPUHoursUsed += gpuHours
	}
}

// Association returns a copy of the association for the key, or nil.
func (d *DBD) Association(key AssocKey) *Association {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if a := d.assocs[key]; a != nil {
		return a.Clone()
	}
	return nil
}

// Associations returns copies of all associations, account-level first,
// sorted by (account, user). Counted as a DBD usage RPC and as that many
// records.
func (d *DBD) Associations() []*Association {
	d.stats.Record(RPCUsageRollup)
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Association, 0, len(d.assocs))
	for _, a := range d.assocs {
		out = append(out, a.Clone())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Account != out[j].Account {
			return out[i].Account < out[j].Account
		}
		return out[i].User < out[j].User
	})
	d.stats.AddRecords(len(out))
	return out
}

// JobFilter selects accounting records, mirroring sacct's main options.
// Zero-valued fields match everything.
type JobFilter struct {
	Users    []string
	Accounts []string
	States   []JobState
	// Start/End select jobs whose [SubmitTime, EndTime-or-now] interval
	// overlaps [Start, End], following sacct -S/-E semantics.
	Start     time.Time
	End       time.Time
	Partition string
	JobIDs    []JobID
	// ArrayJobID selects all tasks of one job array.
	ArrayJobID JobID
	// Limit caps the number of returned records (most recent first when set).
	Limit int
}

func (f *JobFilter) matches(j *Job, now time.Time) bool {
	if len(f.Users) > 0 && !containsString(f.Users, j.User) {
		return false
	}
	if len(f.Accounts) > 0 && !containsString(f.Accounts, j.Account) {
		return false
	}
	if f.Partition != "" && j.Partition != f.Partition {
		return false
	}
	if len(f.States) > 0 {
		ok := false
		for _, s := range f.States {
			if j.State == s {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.JobIDs) > 0 {
		ok := false
		for _, id := range f.JobIDs {
			if j.ID == id {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.ArrayJobID != 0 && j.ArrayJobID != f.ArrayJobID {
		return false
	}
	if !f.Start.IsZero() || !f.End.IsZero() {
		jobEnd := j.EndTime
		if jobEnd.IsZero() {
			jobEnd = now
		}
		if !f.End.IsZero() && j.SubmitTime.After(f.End) {
			return false
		}
		if !f.Start.IsZero() && jobEnd.Before(f.Start) {
			return false
		}
	}
	return true
}

func containsString(haystack []string, needle string) bool {
	for _, s := range haystack {
		if s == needle {
			return true
		}
	}
	return false
}

// Jobs returns accounting records matching the filter, ordered by submit
// time ascending (or most-recent-first truncated to Limit when Limit > 0).
// Counted as a DBD_GET_JOBS RPC — the sacct path — and as that many
// records.
func (d *DBD) Jobs(f JobFilter, now time.Time) []*Job {
	d.stats.Record(RPCSacct)
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []*Job
	if f.Limit > 0 {
		// Scan newest-first so we can stop early.
		for i := len(d.order) - 1; i >= 0 && len(out) < f.Limit; i-- {
			j := d.jobs[d.order[i]]
			if f.matches(j, now) {
				out = append(out, j.Clone())
			}
		}
		d.stats.AddRecords(len(out))
		return out
	}
	for _, id := range d.order {
		j := d.jobs[id]
		if f.matches(j, now) {
			out = append(out, j.Clone())
		}
	}
	d.stats.AddRecords(len(out))
	return out
}

// Job returns the accounting record for one job, or nil when unknown.
// Counted as a DBD_GET_JOBS RPC.
func (d *DBD) Job(id JobID) *Job {
	d.stats.Record(RPCSacct)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if j := d.jobs[id]; j != nil {
		return j.Clone()
	}
	return nil
}

// JobCount returns the number of stored accounting records.
func (d *DBD) JobCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.jobs)
}
