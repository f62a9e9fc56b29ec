package slurm

import "sync"

// RPCKind labels the query classes the daemons serve. The split matters for
// the paper's §2.4/§3.2 claim: squeue and scontrol hit the controller
// (slurmctld), which also schedules, while sacct hits the database daemon
// (slurmdbd); caching exists to keep controller traffic down.
type RPCKind string

// RPC kinds counted by DaemonStats.
const (
	RPCSqueue      RPCKind = "REQUEST_JOB_INFO"         // squeue
	RPCSinfo       RPCKind = "REQUEST_PARTITION_INFO"   // sinfo
	RPCNodeInfo    RPCKind = "REQUEST_NODE_INFO"        // scontrol show node
	RPCJobInfo     RPCKind = "REQUEST_JOB_INFO_SINGLE"  // scontrol show job
	RPCAssocInfo   RPCKind = "REQUEST_ASSOC_INFO"       // scontrol show assoc
	RPCSubmit      RPCKind = "REQUEST_SUBMIT_BATCH_JOB" // sbatch/salloc
	RPCCancel      RPCKind = "REQUEST_CANCEL_JOB"       // scancel
	RPCSacct       RPCKind = "DBD_GET_JOBS"             // sacct
	RPCUsageRollup RPCKind = "DBD_GET_USAGE"            // sreport-style usage query
	RPCRollup      RPCKind = "DBD_GET_ROLLUP_USAGE"     // pre-aggregated rollup query
)

// DaemonStats counts RPCs served by one daemon, and separately the records
// its listing RPCs return, so fewer RPCs can be checked not to ship more
// rows. All methods are safe for concurrent use.
type DaemonStats struct {
	mu      sync.Mutex
	name    string
	counts  map[RPCKind]int64
	total   int64
	records int64
}

// NewDaemonStats returns a stats counter labelled with the daemon name.
func NewDaemonStats(name string) *DaemonStats {
	return &DaemonStats{name: name, counts: make(map[RPCKind]int64)}
}

// Name returns the daemon label ("slurmctld" or "slurmdbd").
func (s *DaemonStats) Name() string { return s.name }

// Record counts one served RPC of the given kind.
func (s *DaemonStats) Record(kind RPCKind) {
	s.mu.Lock()
	s.counts[kind]++
	s.total++
	s.mu.Unlock()
}

// AddRecords counts n records returned by one RPC. Record, Total, Count
// and Snapshot count RPCs only.
func (s *DaemonStats) AddRecords(n int) {
	s.mu.Lock()
	s.records += int64(n)
	s.mu.Unlock()
}

// Records returns the number of records the daemon's listing RPCs have
// returned: job records, associations and rollup rows.
func (s *DaemonStats) Records() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Total returns the total number of RPCs served.
func (s *DaemonStats) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Count returns the number of RPCs served of one kind.
func (s *DaemonStats) Count(kind RPCKind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[kind]
}

// Snapshot returns a copy of all counters.
func (s *DaemonStats) Snapshot() map[RPCKind]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[RPCKind]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Reset zeroes all counters; used between benchmark phases.
func (s *DaemonStats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts = make(map[RPCKind]int64)
	s.total = 0
	s.records = 0
}
