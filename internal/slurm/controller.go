package slurm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ooddash/internal/clock"
)

// Controller simulates slurmctld: it owns the live cluster state (nodes,
// partitions, queue) and serves the query RPCs behind squeue, sinfo, and
// scontrol. Every query is counted in Stats so experiments can measure the
// controller load the paper's caching design is meant to reduce.
type Controller struct {
	mu          sync.Mutex
	clock       clock.Clock
	clusterName string
	dbd         *DBD
	stats       *DaemonStats

	nodes      map[string]*Node
	nodeOrder  []string
	partitions map[string]*Partition
	partOrder  []string
	qos        map[string]*QOS

	jobs      map[JobID]*Job // active jobs plus recently finished ones
	jobOrder  []JobID        // submission order of jobs still held in memory
	nextID    JobID
	retention time.Duration // how long finished jobs stay visible to squeue
	events    *eventLog     // real-time monitoring feed (§9 extension)

	maintWindows []MaintenanceWindow
	maintSeq     int
	manualMaint  map[string]bool // nodes placed in maintenance by hand

	// Power management (see power.go): transition counters and the boot
	// delays for power-up and reboot cycles (zero means the defaults).
	power       PowerStats
	resumeDelay time.Duration
	rebootDelay time.Duration

	// healthGate simulates controller outages and brown-outs; queries are
	// gated at the command surface (slurmcli.SimRunner), not here, so
	// internal bookkeeping keeps working while "clients" see failures.
	healthGate healthGate
}

// newController builds a controller from already-validated cluster state.
// Use NewCluster to construct the full daemon pair from a ClusterConfig.
func newController(name string, clk clock.Clock, dbd *DBD, retention time.Duration) *Controller {
	if retention <= 0 {
		retention = 5 * time.Minute
	}
	return &Controller{
		clock:       clk,
		clusterName: name,
		dbd:         dbd,
		stats:       NewDaemonStats("slurmctld"),
		nodes:       make(map[string]*Node),
		partitions:  make(map[string]*Partition),
		qos:         make(map[string]*QOS),
		jobs:        make(map[JobID]*Job),
		nextID:      1000, // Slurm job IDs on long-lived clusters start high
		retention:   retention,
		events:      newEventLog(8192),
		manualMaint: make(map[string]bool),
	}
}

// Stats exposes the controller's RPC counters.
func (c *Controller) Stats() *DaemonStats { return c.stats }

// ClusterName returns the configured cluster name.
func (c *Controller) ClusterName() string { return c.clusterName }

// Now returns the controller's current (possibly simulated) time.
func (c *Controller) Now() time.Time { return c.clock.Now() }

// addNode registers a node during cluster construction.
func (c *Controller) addNode(n *Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[n.Name] = n
	c.nodeOrder = append(c.nodeOrder, n.Name)
	sort.Strings(c.nodeOrder)
}

// addPartition registers a partition during cluster construction.
func (c *Controller) addPartition(p *Partition) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Strings(p.Nodes)
	c.partitions[p.Name] = p
	c.partOrder = append(c.partOrder, p.Name)
}

// addQOS registers a QOS level during cluster construction.
func (c *Controller) addQOS(q QOS) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := q
	c.qos[q.Name] = &cp
}

// Submit validates and enqueues a job (or a whole job array), returning the
// (array) job ID. Mirrors sbatch: the job is recorded with the accounting
// daemon immediately and scheduled on the next Tick.
func (c *Controller) Submit(req SubmitRequest) (JobID, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	c.stats.Record(RPCSubmit)
	now := c.clock.Now()

	c.mu.Lock()
	part := c.partitions[req.Partition]
	if part == nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("slurm: submit: unknown partition %q", req.Partition)
	}
	if part.MaxTime > 0 && req.TimeLimit > part.MaxTime {
		c.mu.Unlock()
		return 0, fmt.Errorf("slurm: submit: time limit %v exceeds partition %s limit %v",
			req.TimeLimit, part.Name, part.MaxTime)
	}
	if req.QOS != "" {
		if _, ok := c.qos[req.QOS]; !ok {
			c.mu.Unlock()
			return 0, fmt.Errorf("slurm: submit: unknown QOS %q", req.QOS)
		}
	}
	if c.dbd.Association(AssocKey{Account: req.Account, User: req.User}) == nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("slurm: submit: user %q has no association with account %q",
			req.User, req.Account)
	}
	if req.Constraint != "" {
		// Like Slurm, reject requests no node in the partition could ever
		// satisfy ("Requested node configuration is not available").
		satisfiable := false
		for _, name := range part.Nodes {
			if n := c.nodes[name]; n != nil && n.HasFeatures(req.Constraint) {
				satisfiable = true
				break
			}
		}
		if !satisfiable {
			c.mu.Unlock()
			return 0, fmt.Errorf("slurm: submit: requested node configuration is not available (constraint %q in partition %s)",
				req.Constraint, part.Name)
		}
	}

	tasks := req.ArraySize
	if tasks <= 1 {
		tasks = 1
	}
	arrayID := JobID(0)
	if req.ArraySize > 1 {
		arrayID = c.nextID
	}
	first := c.nextID
	created := make([]*Job, 0, tasks)
	for t := 0; t < tasks; t++ {
		id := c.nextID
		c.nextID++
		j := &Job{
			ID:             id,
			Name:           req.Name,
			User:           req.User,
			Account:        req.Account,
			Partition:      req.Partition,
			QOS:            req.QOS,
			ReqTRES:        req.ReqTRES,
			TimeLimit:      req.TimeLimit,
			SubmitTime:     now,
			BeginTime:      req.BeginTime,
			Dependency:     req.Dependency,
			WorkDir:        req.WorkDir,
			StdoutPath:     req.StdoutPath,
			StderrPath:     req.StderrPath,
			Constraint:     req.Constraint,
			InteractiveApp: req.InteractiveApp,
			SessionID:      req.SessionID,
			State:          StatePending,
			Reason:         ReasonPriority,
			Profile:        req.Profile,
		}
		if arrayID != 0 {
			j.ArrayJobID = arrayID
			j.ArrayTaskID = t
		}
		if req.Hold {
			j.Reason = ReasonJobHeldUser
		}
		if j.ReqTRES.Nodes <= 0 {
			j.ReqTRES.Nodes = 1
		}
		j.EligibleTime = now
		if req.BeginTime.After(now) {
			j.EligibleTime = req.BeginTime
		}
		c.jobs[id] = j
		c.jobOrder = append(c.jobOrder, id)
		created = append(created, j)
	}
	c.mu.Unlock()

	for _, j := range created {
		c.dbd.recordJob(j)
		c.emitJobEvent(EventSubmitted, j, now)
	}
	return first, nil
}

// Cancel cancels a job. Only the submitting user (or "root") may cancel.
func (c *Controller) Cancel(id JobID, user string) error {
	c.stats.Record(RPCCancel)
	now := c.clock.Now()
	c.mu.Lock()
	j := c.jobs[id]
	if j == nil {
		c.mu.Unlock()
		return fmt.Errorf("slurm: cancel: unknown job %d", id)
	}
	if user != "root" && user != j.User {
		c.mu.Unlock()
		return fmt.Errorf("slurm: cancel: user %s may not cancel job %d owned by %s", user, id, j.User)
	}
	if j.State.Terminal() {
		c.mu.Unlock()
		return nil
	}
	if j.State == StateRunning || j.State == StateSuspended {
		c.freeJobResourcesLocked(j)
	}
	j.State = StateCancelled
	j.Reason = ReasonNone
	j.EndTime = now
	rec := j.Clone()
	c.emitJobEvent(EventCancelled, j, now)
	c.mu.Unlock()

	c.dbd.recordJob(rec)
	if !rec.StartTime.IsZero() {
		c.dbd.chargeUsage(rec, now)
	}
	return nil
}

// Hold marks a pending job held by the user; Release undoes it.
func (c *Controller) Hold(id JobID, user string) error {
	return c.setHold(id, user, true)
}

// Release releases a user hold on a pending job.
func (c *Controller) Release(id JobID, user string) error {
	return c.setHold(id, user, false)
}

func (c *Controller) setHold(id JobID, user string, hold bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return fmt.Errorf("slurm: hold: unknown job %d", id)
	}
	if user != "root" && user != j.User {
		return fmt.Errorf("slurm: hold: permission denied for user %s on job %d", user, id)
	}
	if j.State != StatePending {
		return fmt.Errorf("slurm: hold: job %d is %s, not pending", id, j.State)
	}
	if hold {
		j.Reason = ReasonJobHeldUser
	} else if j.Reason == ReasonJobHeldUser {
		j.Reason = ReasonPriority
	}
	return nil
}

// Suspend pauses a running job: it keeps its allocation but its wall clock
// stops, so the scheduled end shifts out by the suspension (scontrol
// suspend semantics). Owner or root only.
func (c *Controller) Suspend(id JobID, user string) error {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return fmt.Errorf("slurm: suspend: unknown job %d", id)
	}
	if user != "root" && user != j.User {
		return fmt.Errorf("slurm: suspend: permission denied for user %s on job %d", user, id)
	}
	if j.State != StateRunning {
		return fmt.Errorf("slurm: suspend: job %d is %s, not running", id, j.State)
	}
	j.State = StateSuspended
	j.SuspendedAt = now
	c.dbd.recordJob(j)
	return nil
}

// Resume continues a suspended job.
func (c *Controller) Resume(id JobID, user string) error {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return fmt.Errorf("slurm: resume: unknown job %d", id)
	}
	if user != "root" && user != j.User {
		return fmt.Errorf("slurm: resume: permission denied for user %s on job %d", user, id)
	}
	if j.State != StateSuspended {
		return fmt.Errorf("slurm: resume: job %d is %s, not suspended", id, j.State)
	}
	j.SuspendTotal += now.Sub(j.SuspendedAt)
	j.SuspendedAt = time.Time{}
	j.State = StateRunning
	c.dbd.recordJob(j)
	return nil
}

// --- Node administration -------------------------------------------------

// DrainNode marks a node draining with the given reason.
func (c *Controller) DrainNode(name, reason string) error {
	return c.setNodeFlags(name, func(n *Node) {
		n.Drain = true
		n.StateReason = reason
	})
}

// ResumeNode clears drain/maint/down flags so the node schedules again.
func (c *Controller) ResumeNode(name string) error {
	return c.setNodeFlags(name, func(n *Node) {
		n.Drain = false
		n.Maint = false
		n.StateReason = ""
		if n.State == NodeDown {
			n.State = NodeIdle
		}
	})
}

// SetNodeDown marks a node down (jobs on it fail at the next Tick).
func (c *Controller) SetNodeDown(name, reason string) error {
	return c.setNodeFlags(name, func(n *Node) {
		n.State = NodeDown
		n.StateReason = reason
	})
}

// SetNodeMaint places a node in (or out of) manual maintenance, independent
// of scheduled maintenance windows.
func (c *Controller) SetNodeMaint(name string, maint bool) error {
	return c.setNodeFlags(name, func(n *Node) {
		n.Maint = maint
		c.manualMaint[name] = maint
		if !maint {
			delete(c.manualMaint, name)
		}
	})
}

func (c *Controller) setNodeFlags(name string, f func(*Node)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[name]
	if n == nil {
		return fmt.Errorf("slurm: unknown node %q", name)
	}
	f(n)
	return nil
}

// --- Queries (the squeue/sinfo/scontrol surface) --------------------------

// LiveJobFilter selects jobs from the controller's in-memory queue, the
// squeue surface. Unlike sacct, it only sees active and recently finished
// jobs.
type LiveJobFilter struct {
	User      string
	Account   string
	Partition string
	States    []JobState
	Node      string // only jobs running on this node
	Limit     int    // cap result count (most recent submissions first)
}

func (f *LiveJobFilter) matches(j *Job) bool {
	if f.User != "" && j.User != f.User {
		return false
	}
	if f.Account != "" && j.Account != f.Account {
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
	if f.Node != "" {
		ok := false
		for _, n := range j.Nodes {
			if n == f.Node {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Jobs returns live queue entries matching the filter, newest submissions
// first. Counted as a squeue RPC against the controller.
func (c *Controller) Jobs(f LiveJobFilter) []*Job {
	c.stats.Record(RPCSqueue)
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Job
	for i := len(c.jobOrder) - 1; i >= 0; i-- {
		j := c.jobs[c.jobOrder[i]]
		if j == nil || !f.matches(j) {
			continue
		}
		out = append(out, j.Clone())
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Job returns one live job by ID (scontrol show job), or nil if the job has
// aged out of controller memory.
func (c *Controller) Job(id JobID) *Job {
	c.stats.Record(RPCJobInfo)
	c.mu.Lock()
	defer c.mu.Unlock()
	if j := c.jobs[id]; j != nil {
		return j.Clone()
	}
	return nil
}

// Node returns one node (scontrol show node <name>), or nil when unknown.
func (c *Controller) Node(name string) *Node {
	c.stats.Record(RPCNodeInfo)
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[name]; n != nil {
		return n.Clone()
	}
	return nil
}

// Nodes returns all nodes in name order (scontrol show node).
func (c *Controller) Nodes() []*Node {
	c.stats.Record(RPCNodeInfo)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.nodeOrder))
	for _, name := range c.nodeOrder {
		out = append(out, c.nodes[name].Clone())
	}
	return out
}

// Partitions returns all partitions in registration order (sinfo).
func (c *Controller) Partitions() []*Partition {
	c.stats.Record(RPCSinfo)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Partition, 0, len(c.partOrder))
	for _, name := range c.partOrder {
		out = append(out, c.partitions[name].Clone())
	}
	return out
}

// QOSByName returns the QOS definition, or nil.
func (c *Controller) QOSByName(name string) *QOS {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q := c.qos[name]; q != nil {
		cp := *q
		return &cp
	}
	return nil
}

// Utilization computes per-partition utilization, the System Status widget's
// data. Counted as one sinfo RPC regardless of partition count, matching a
// single `sinfo` invocation.
func (c *Controller) Utilization() []PartitionUtilization {
	c.stats.Record(RPCSinfo)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PartitionUtilization, 0, len(c.partOrder))
	for _, pname := range c.partOrder {
		p := c.partitions[pname]
		u := PartitionUtilization{
			Name:         p.Name,
			State:        p.State,
			NodesByState: make(map[NodeState]int),
		}
		for _, nname := range p.Nodes {
			n := c.nodes[nname]
			if n == nil {
				continue
			}
			u.TotalNodes++
			u.TotalCPUs += n.CPUs
			u.AllocCPUs += n.Alloc.CPUs
			u.TotalGPUs += n.GPUs
			u.AllocGPUs += n.Alloc.GPUs
			u.NodesByState[n.EffectiveState()]++
		}
		for _, id := range c.jobOrder {
			j := c.jobs[id]
			if j == nil || j.Partition != p.Name {
				continue
			}
			switch j.State {
			case StatePending:
				u.PendingJobs++
			case StateRunning:
				u.RunningJobs++
			}
		}
		out = append(out, u)
	}
	return out
}

// LiveAccountUsage aggregates in-use and queued CPUs per account from the
// live queue, merged with the accounting daemon's accumulated usage. This is
// the `scontrol show assoc`-backed Accounts widget data (§3.4). Counted as
// one assoc RPC.
func (c *Controller) LiveAccountUsage(account string) AccountUsage {
	c.stats.Record(RPCAssocInfo)
	assoc := c.dbd.Association(AssocKey{Account: account})

	c.mu.Lock()
	perUser := make(map[string]*UserUsage)
	u := AccountUsage{Account: account}
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j == nil || j.Account != account {
			continue
		}
		uu := perUser[j.User]
		if uu == nil {
			uu = &UserUsage{User: j.User}
			perUser[j.User] = uu
		}
		switch j.State {
		case StateRunning, StateCompleting:
			u.CPUsInUse += j.AllocTRES.CPUs
			uu.CPUsInUse += j.AllocTRES.CPUs
			uu.RunningJobs++
		case StatePending:
			u.CPUsQueued += j.ReqTRES.CPUs
			uu.CPUsQueued += j.ReqTRES.CPUs
			uu.PendingJobs++
		}
	}
	c.mu.Unlock()

	if assoc != nil {
		u.GrpCPULimit = assoc.GrpCPULimit
		u.GrpGPUHourLimit = assoc.GrpGPUHourLimit
		u.GPUHoursUsed = assoc.GPUHoursUsed
	}
	// Fold in accumulated per-user usage from accounting.
	for user, uu := range perUser {
		if a := c.dbd.Association(AssocKey{Account: account, User: user}); a != nil {
			uu.GPUHoursUsed = a.GPUHoursUsed
			uu.CPUHoursUsed = a.CPUTimeUsed
		}
	}
	u.PerUser = make([]UserUsage, 0, len(perUser))
	for _, uu := range perUser {
		u.PerUser = append(u.PerUser, *uu)
	}
	sort.Slice(u.PerUser, func(i, j int) bool {
		if u.PerUser[i].CPUsInUse != u.PerUser[j].CPUsInUse {
			return u.PerUser[i].CPUsInUse > u.PerUser[j].CPUsInUse
		}
		return u.PerUser[i].User < u.PerUser[j].User
	})
	return u
}

// UserAccounts returns the accounts the user has an association with,
// sorted. Counted as one assoc RPC.
func (c *Controller) UserAccounts(user string) []string {
	c.stats.Record(RPCAssocInfo)
	var out []string
	for _, a := range c.dbd.Associations() {
		if a.User == user {
			out = append(out, a.Account)
		}
	}
	sort.Strings(out)
	return out
}

// freeJobResourcesLocked releases a running job's allocation back to its
// nodes. Caller holds c.mu.
func (c *Controller) freeJobResourcesLocked(j *Job) {
	if len(j.Nodes) == 0 {
		return
	}
	share := perNodeShare(j.AllocTRES, len(j.Nodes))
	for _, name := range j.Nodes {
		n := c.nodes[name]
		if n == nil {
			continue
		}
		n.Alloc = n.Alloc.Sub(share)
		if n.Alloc.CPUs < 0 {
			n.Alloc.CPUs = 0
		}
		if n.Alloc.MemMB < 0 {
			n.Alloc.MemMB = 0
		}
		if n.Alloc.GPUs < 0 {
			n.Alloc.GPUs = 0
		}
		n.removeJob(j.ID)
		n.LastBusy = c.clock.Now()
	}
}
