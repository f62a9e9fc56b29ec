package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/resilience"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/trace"
)

// SLO is a scenario's pass/fail envelope under the open-loop load harness.
// Latency is measured from each request's intended Poisson arrival time
// (coordinated-omission free), so a stalled server shows up as p99 growth
// even though no client was waiting to send. Server errors (5xx other than
// 503) are always gated at zero — the catalog's core promise is that no
// storm produces a page-level failure.
type SLO struct {
	P99             time.Duration // open-loop p99 latency bound
	MaxDegradedRate float64       // stale-while-error serves / total
	MaxRejectedRate float64       // 503s (breaker, outage, fill cap) / total
}

// Scenario is one scripted storm. Steps run on the shared simulated clock:
// OnStep acts (inject faults, submit work, issue traffic), the runtime
// advances StepEvery and ticks the scheduler and push subsystem, Check
// asserts per-step invariants, and Verify asserts the end state.
type Scenario struct {
	Name        string
	Description string
	Steps       int
	StepEvery   time.Duration
	SLO         SLO
	// Alerts gates the run's burn-rate alerting per scenario; the zero
	// value demands that no alert fires at all (see Run.CheckAlerts).
	Alerts AlertExpectation

	Setup  func(*Run) error
	OnStep func(*Run, int) error
	Check  func(*Run, int) error
	Verify func(*Run) error

	// Draw picks one open-loop request (user, path) for the load harness.
	Draw func(*Run, *rand.Rand) (user, path string)
}

// Catalog returns the six scenarios in canonical order.
func Catalog() []Scenario {
	return []Scenario{
		maintenanceDrain(),
		nodeFailureStorm(),
		powerCycle(),
		jobArrayStorm(),
		accountingBackfill(),
		loginRush(),
	}
}

// Names lists the catalog's scenario names in order.
func Names() []string {
	cat := Catalog()
	out := make([]string, len(cat))
	for i, sc := range cat {
		out[i] = sc.Name
	}
	return out
}

// ByName finds one scenario.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// cpuNodes returns n node names from the "a" (cpu) rack in name order,
// starting at offset.
func cpuNodes(r *Run, offset, n int) ([]string, error) {
	var names []string
	for _, node := range r.Env.Cluster.Ctl.Nodes() {
		if strings.HasPrefix(node.Name, "a") {
			names = append(names, node.Name)
		}
	}
	sort.Strings(names)
	if len(names) < offset+n {
		return nil, fmt.Errorf("cluster has %d cpu nodes, scenario needs %d", len(names), offset+n)
	}
	return names[offset : offset+n], nil
}

// defaultDraw spreads open-loop load across the widget mix a homepage and
// the two status pages produce.
func defaultDraw(r *Run, rng *rand.Rand) (string, string) {
	user := r.Env.UserNames[rng.Intn(len(r.Env.UserNames))]
	paths := []string{
		"/api/recent_jobs", "/api/system_status", "/api/cluster_status",
		"/api/storage", "/api/accounts", "/api/myjobs",
	}
	return user, paths[rng.Intn(len(paths))]
}

// ctldBreaker returns the slurmctld breaker snapshot.
func ctldBreaker(r *Run) resilience.Stats {
	for _, b := range r.Server.Resilience().Snapshot() {
		if b.Source == "slurmctld" {
			return b
		}
	}
	return resilience.Stats{}
}

// --- 1. Maintenance-window drain -------------------------------------------

func maintenanceDrain() Scenario {
	const (
		rackSize  = 4
		leadTime  = 10 * time.Minute
		windowLen = 30 * time.Minute
	)
	return Scenario{
		Name: "maintenance_drain",
		Description: "Drain a rack, lay a maintenance reservation over it, run a job " +
			"stream across the window, then resume: no job may ever land on the rack, " +
			"and the nodes must come back clean.",
		Steps:     12,
		StepEvery: 5 * time.Minute,
		SLO:       SLO{P99: 800 * time.Millisecond, MaxDegradedRate: 0.10, MaxRejectedRate: 0.05},
		Draw:      defaultDraw,
		Setup: func(r *Run) error {
			covered, err := cpuNodes(r, 0, rackSize)
			if err != nil {
				return err
			}
			ctl := r.Env.Cluster.Ctl
			for _, n := range covered {
				if err := ctl.DrainNode(n, "chaos: pre-maintenance drain"); err != nil {
					return err
				}
			}
			start := r.Env.Clock.Now().Add(leadTime)
			end := start.Add(windowLen)
			if _, err := ctl.ScheduleMaintenance("chaos-pm", start, end, covered, "chaos rack maintenance"); err != nil {
				return err
			}
			r.Covered = covered
			r.Scratch["drained_at"] = r.Env.Clock.Now().UnixNano()
			r.Scratch["window_start"] = start.UnixNano()
			r.Scratch["window_end"] = end.UnixNano()
			return nil
		},
		OnStep: func(r *Run, i int) error {
			r.Env.SubmitRandom(r.Rng, 4)
			user := r.Env.UserNames[i%len(r.Env.UserNames)]
			r.Get(user, "/api/system_status")
			r.Get(user, "/api/cluster_status")
			return nil
		},
		Check: func(r *Run, i int) error {
			ctl := r.Env.Cluster.Ctl
			covered := make(map[string]bool, len(r.Covered))
			for _, n := range r.Covered {
				covered[n] = true
			}
			// Draining lets jobs already on the rack run out; the violation is a
			// job STARTED on a covered node after the drain landed.
			drainedAt := time.Unix(0, r.Scratch["drained_at"])
			for _, j := range ctl.Jobs(slurm.LiveJobFilter{States: []slurm.JobState{slurm.StateRunning}}) {
				if !j.StartTime.After(drainedAt) {
					continue
				}
				for _, n := range j.Nodes {
					if covered[n] {
						return fmt.Errorf("job %d started on drained/reserved node %s after the drain", j.ID, n)
					}
				}
			}
			now := r.Env.Clock.Now().UnixNano()
			if now >= r.Scratch["window_start"] && now < r.Scratch["window_end"] {
				for _, n := range r.Covered {
					if node := ctl.Node(n); node == nil || !node.Maint {
						return fmt.Errorf("node %s not in maint during the window", n)
					}
				}
			}
			return nil
		},
		Verify: func(r *Run) error {
			ctl := r.Env.Cluster.Ctl
			for _, n := range r.Covered {
				if err := ctl.ResumeNode(n); err != nil {
					return err
				}
			}
			ctl.Tick()
			for _, n := range r.Covered {
				node := ctl.Node(n)
				if node == nil || !node.Schedulable() || node.Maint || node.Drain {
					return fmt.Errorf("node %s did not come back clean after resume", n)
				}
			}
			if h := r.Health(); h.ServerErrors > 0 {
				return fmt.Errorf("%d server errors during drain", h.ServerErrors)
			}
			return nil
		},
	}
}

// --- 2. Node-failure storm --------------------------------------------------

func nodeFailureStorm() Scenario {
	const (
		failAt    = 2 // step that takes nodes and the controller down
		recoverAt = 7 // step that restores the controller and reboots nodes
	)
	return Scenario{
		Name: "node_failure_storm",
		Description: "Nodes fail health checks and slurmctld stops answering: the " +
			"breaker must open, widgets must fail over to stale data, the push " +
			"scheduler must shed cycles, and reboots must bring the nodes back.",
		Steps:     14,
		StepEvery: time.Minute,
		SLO:       SLO{P99: 1500 * time.Millisecond, MaxDegradedRate: 0.85, MaxRejectedRate: 0.30},
		// The outage must page: degraded stale serves burn the availability
		// budget fast enough to walk the page rule through pending, firing,
		// and — once the controller recovers — resolution, all within the
		// scripted 14 minutes. Latency stays quiet (outage errors are
		// instant; nothing stalls the handlers).
		Alerts: AlertExpectation{
			MustFire:    []string{"availability/page"},
			MustResolve: []string{"availability/page"},
		},
		Draw: func(r *Run, rng *rand.Rand) (string, string) {
			user := r.Env.UserNames[rng.Intn(len(r.Env.UserNames))]
			paths := []string{"/api/system_status", "/api/cluster_status", "/api/recent_jobs"}
			return user, paths[rng.Intn(len(paths))]
		},
		Setup: func(r *Run) error {
			user := r.Env.UserNames[0]
			// Warm the caches so the storm has last-known-good data to serve.
			r.Get(user, "/api/system_status")
			r.Get(user, "/api/cluster_status")
			// A background refresh source, so the drill observes
			// skip-while-degraded scheduling without holding a stream open.
			_, err := r.Server.RegisterPushSource("system_status", nil)
			return err
		},
		OnStep: func(r *Run, i int) error {
			ctl := r.Env.Cluster.Ctl
			switch i {
			case failAt:
				victims, err := cpuNodes(r, 4, 3)
				if err != nil {
					return err
				}
				for _, n := range victims {
					if err := ctl.SetNodeDown(n, "chaos: health check failed"); err != nil {
						return err
					}
				}
				r.Covered = victims
				r.Faults.SetRules(slurmcli.FaultRule{Outage: true})
			case recoverAt:
				r.Faults.SetRules()
				for _, n := range r.Covered {
					if err := ctl.RebootNode(n, "chaos: storm recovery"); err != nil {
						return err
					}
				}
			}
			user := r.Env.UserNames[0]
			r.Get(user, "/api/system_status")
			r.Get(user, "/api/cluster_status")
			return nil
		},
		Verify: func(r *Run) error {
			if b := ctldBreaker(r); b.Opens < 1 {
				return fmt.Errorf("slurmctld breaker never opened during the storm")
			} else if b.State != resilience.Closed {
				return fmt.Errorf("slurmctld breaker still %s after recovery", b.State)
			}
			h := r.Health()
			if h.Degraded == 0 {
				return fmt.Errorf("no stale-while-error serves during a full controller outage")
			}
			if h.ServerErrors > 0 {
				return fmt.Errorf("%d server errors during the storm", h.ServerErrors)
			}
			if h.MissingRetryAfter > 0 {
				return fmt.Errorf("%d cold 503s lacked a Retry-After hint", h.MissingRetryAfter)
			}
			if skipped := r.Server.PushScheduler().Stats().Skipped; skipped < 1 {
				return fmt.Errorf("push scheduler never shed a cycle while degraded")
			}
			// Recovery must end fresh: the controller answers again.
			if status, degraded := r.Get(r.Env.UserNames[0], "/api/system_status"); status != 200 || degraded {
				return fmt.Errorf("post-storm system_status: status %d degraded=%t, want fresh 200", status, degraded)
			}
			// Rebooted nodes are back in service.
			for _, n := range r.Covered {
				node := r.Env.Cluster.Ctl.Node(n)
				if node == nil || !node.Schedulable() {
					return fmt.Errorf("node %s not schedulable after reboot recovery", n)
				}
			}
			// Trace attribution survived the storm: retained degraded traces
			// name the widget and the http origin that observed the outage.
			sums := r.Server.Tracer().Store().List(trace.Filter{DegradedOnly: true, Limit: 10})
			if len(sums) == 0 {
				return fmt.Errorf("trace store retained no degraded traces from the storm")
			}
			for _, s := range sums {
				if s.Widget == "" || s.Origin == "" {
					return fmt.Errorf("retained trace %s lacks widget/origin attribution", s.ID)
				}
			}
			return nil
		},
	}
}

// --- 3. Energy-saving power cycle -------------------------------------------

func powerCycle() Scenario {
	const (
		keepAwake = 4
		burstAt   = 2
		burstJobs = 6
	)
	return Scenario{
		Name: "power_cycle",
		Description: "Power idle nodes down for energy saving, then submit a burst " +
			"that outgrows the awake capacity: the scheduler must auto-wake nodes, " +
			"the burst must run, and no powered-down node may look schedulable.",
		Steps:     10,
		StepEvery: 2 * time.Minute,
		SLO:       SLO{P99: 800 * time.Millisecond, MaxDegradedRate: 0.10, MaxRejectedRate: 0.05},
		Draw:      defaultDraw,
		OnStep: func(r *Run, i int) error {
			ctl := r.Env.Cluster.Ctl
			switch i {
			case 0:
				down := ctl.PowerDownIdle(keepAwake)
				if len(down) == 0 {
					return fmt.Errorf("no idle node could be powered down")
				}
				r.Covered = down
			case burstAt:
				user := r.Env.UserNames[0]
				u, ok := r.Env.Users.Lookup(user)
				if !ok || len(u.Accounts) == 0 {
					return fmt.Errorf("user %s has no account", user)
				}
				for j := 0; j < burstJobs; j++ {
					_, err := r.SubmitJob(slurm.SubmitRequest{
						Name: fmt.Sprintf("chaos-burst-%d", j), User: user, Account: u.Accounts[0],
						Partition: "cpu", ReqTRES: slurm.TRES{CPUs: 128, MemMB: 64 * 1024},
						TimeLimit: time.Hour,
						Profile: slurm.UsageProfile{CPUUtilization: 0.9, MemUtilization: 0.5,
							ActualDuration: 10 * time.Minute},
					})
					if err != nil {
						return err
					}
				}
			}
			r.Get(r.Env.UserNames[0], "/api/cluster_status")
			return nil
		},
		Check: func(r *Run, i int) error {
			for _, n := range r.Covered {
				node := r.Env.Cluster.Ctl.Node(n)
				if node != nil && node.PoweredDown && node.Schedulable() {
					return fmt.Errorf("powered-down node %s reports schedulable", n)
				}
			}
			return nil
		},
		Verify: func(r *Run) error {
			ctl := r.Env.Cluster.Ctl
			if wakes := ctl.Power().AutoWakes; wakes < 1 {
				return fmt.Errorf("burst outgrew awake capacity but no auto-wake fired")
			}
			for _, id := range r.JobIDs {
				if !r.jobStarted(id) {
					return fmt.Errorf("burst job %d never started after auto-wake", id)
				}
			}
			for _, node := range ctl.Nodes() {
				if node.PoweringUp {
					return fmt.Errorf("node %s stuck POWERING_UP at scenario end", node.Name)
				}
			}
			if h := r.Health(); h.ServerErrors > 0 {
				return fmt.Errorf("%d server errors during power cycling", h.ServerErrors)
			}
			return nil
		},
	}
}

// --- 4. Job-array storm -----------------------------------------------------

func jobArrayStorm() Scenario {
	const (
		arraysPerStep = 4
		arraySize     = 16
	)
	return Scenario{
		Name: "job_array_storm",
		Description: "Sustained job-array submissions flood the queue: the scheduler " +
			"must keep placing tasks, accounting must absorb the records, and the " +
			"queue-facing widgets must keep answering.",
		Steps:     10,
		StepEvery: time.Minute,
		SLO:       SLO{P99: time.Second, MaxDegradedRate: 0.10, MaxRejectedRate: 0.05},
		Draw: func(r *Run, rng *rand.Rand) (string, string) {
			user := r.Env.UserNames[rng.Intn(len(r.Env.UserNames))]
			paths := []string{"/api/recent_jobs", "/api/myjobs", "/api/system_status"}
			return user, paths[rng.Intn(len(paths))]
		},
		Setup: func(r *Run) error {
			r.Scratch["dbd_jobs"] = int64(r.Env.Cluster.DBD.JobCount())
			return nil
		},
		OnStep: func(r *Run, i int) error {
			for j := 0; j < arraysPerStep; j++ {
				user := r.Env.UserNames[r.Rng.Intn(len(r.Env.UserNames))]
				u, ok := r.Env.Users.Lookup(user)
				if !ok || len(u.Accounts) == 0 {
					continue
				}
				_, err := r.SubmitJob(slurm.SubmitRequest{
					Name: fmt.Sprintf("chaos-sweep-%d-%d", i, j), User: user,
					Account: u.Accounts[r.Rng.Intn(len(u.Accounts))], Partition: "cpu",
					ArraySize: arraySize,
					ReqTRES:   slurm.TRES{CPUs: 4, MemMB: 4 * 1024},
					TimeLimit: 30 * time.Minute,
					Profile: slurm.UsageProfile{CPUUtilization: 0.8, MemUtilization: 0.4,
						ActualDuration: 5 * time.Minute},
				})
				if err != nil {
					return err
				}
			}
			user := r.Env.UserNames[i%len(r.Env.UserNames)]
			r.Get(user, "/api/recent_jobs")
			if i%2 == 0 {
				r.Get(AdminUser, "/api/admin/overview")
			}
			return nil
		},
		Verify: func(r *Run) error {
			if len(r.JobIDs) < arraysPerStep*5 {
				return fmt.Errorf("only %d array submissions were accepted", len(r.JobIDs))
			}
			grown := int64(r.Env.Cluster.DBD.JobCount()) - r.Scratch["dbd_jobs"]
			if grown <= 0 {
				return fmt.Errorf("accounting recorded no array tasks during the storm")
			}
			started := 0
			for _, id := range r.JobIDs {
				if r.jobStarted(id) {
					started++
				}
			}
			if started == 0 {
				return fmt.Errorf("scheduler placed none of %d arrays", len(r.JobIDs))
			}
			if h := r.Health(); h.ServerErrors > 0 {
				return fmt.Errorf("%d server errors during the array storm", h.ServerErrors)
			}
			return nil
		},
	}
}

// --- 5. Accounting-backfill flood -------------------------------------------

func accountingBackfill() Scenario {
	const jobsPerStep = 8
	return Scenario{
		Name: "accounting_backfill",
		Description: "A stream of short jobs backfills slurmdbd while injected sacct " +
			"latency slows every accounting query: history widgets must stay correct " +
			"and the dbd fill gate must meter the concurrent queries.",
		Steps:     10,
		StepEvery: time.Minute,
		SLO:       SLO{P99: 2 * time.Second, MaxDegradedRate: 0.25, MaxRejectedRate: 0.10},
		// The latency SLI is wall-clock and this scenario's whole point is
		// slow accounting queries: in the wall-mode harness the injected
		// sacct stalls are real, and even in sim-sleep drills the cold
		// accounting scans can cross the 20ms threshold on a slow machine
		// (the race detector). A latency ticket is legitimate here but
		// environment-dependent, so it is allowed, not required — the
		// availability page must still never fire.
		Alerts: AlertExpectation{MayFire: []string{"latency/ticket"}},
		Draw: func(r *Run, rng *rand.Rand) (string, string) {
			user := r.Env.UserNames[rng.Intn(len(r.Env.UserNames))]
			paths := []string{"/api/myjobs", "/api/myjobs/charts", "/api/insights", "/api/recent_jobs"}
			return user, paths[rng.Intn(len(paths))]
		},
		Setup: func(r *Run) error {
			r.Scratch["dbd_jobs"] = int64(r.Env.Cluster.DBD.JobCount())
			// The flood's signature load: every accounting query crawls.
			r.Faults.SetRules(
				slurmcli.FaultRule{Command: "sacct", Latency: 150 * time.Millisecond, LatencyJitter: 150 * time.Millisecond},
				slurmcli.FaultRule{Command: "sreport", Latency: 150 * time.Millisecond},
			)
			return nil
		},
		OnStep: func(r *Run, i int) error {
			for j := 0; j < jobsPerStep; j++ {
				user := r.Env.UserNames[r.Rng.Intn(len(r.Env.UserNames))]
				u, ok := r.Env.Users.Lookup(user)
				if !ok || len(u.Accounts) == 0 {
					continue
				}
				_, err := r.SubmitJob(slurm.SubmitRequest{
					Name: fmt.Sprintf("chaos-backfill-%d-%d", i, j), User: user,
					Account: u.Accounts[0], Partition: "cpu",
					ReqTRES:   slurm.TRES{CPUs: 2, MemMB: 2 * 1024},
					TimeLimit: 10 * time.Minute,
					Profile: slurm.UsageProfile{CPUUtilization: 0.9, MemUtilization: 0.3,
						ActualDuration: 2 * time.Minute},
				})
				if err != nil {
					return err
				}
			}
			// Rotate accounting readers so each step opens other account
			// sets' history fills.
			for j := 0; j < 3; j++ {
				user := r.Env.UserNames[(i*3+j)%len(r.Env.UserNames)]
				r.Get(user, "/api/myjobs")
			}
			if i%2 == 1 {
				r.Get(AdminUser, "/api/admin/overview")
			}
			return nil
		},
		Verify: func(r *Run) error {
			grown := int64(r.Env.Cluster.DBD.JobCount()) - r.Scratch["dbd_jobs"]
			if grown <= 0 {
				return fmt.Errorf("the backfill recorded no accounting rows")
			}
			var dbd, zero bool
			for _, st := range r.Server.FillStats() {
				if st.Source == "slurmdbd" {
					dbd = st.Peak >= 1
					zero = st.InFlight == 0
				}
			}
			if !dbd {
				return fmt.Errorf("no slurmdbd fill was metered by the admission gate")
			}
			if !zero {
				return fmt.Errorf("slurmdbd fills still in flight at scenario end")
			}
			if h := r.Health(); h.ServerErrors > 0 {
				return fmt.Errorf("%d server errors during the backfill", h.ServerErrors)
			}
			return nil
		},
	}
}

// --- 6. Login-rush stampede -------------------------------------------------

func loginRush() Scenario {
	const (
		rushUsers = 300
		wavesAt   = 2 // second wave re-stampedes after caches cooled
	)
	rushPaths := []string{"/api/recent_jobs", "/api/myjobs", "/api/storage"}
	stampede := func(r *Run) {
		var wg sync.WaitGroup
		for i, user := range r.RushUsers {
			wg.Add(1)
			go func(i int, user string) {
				defer wg.Done()
				r.Get(user, rushPaths[i%len(rushPaths)])
			}(i, user)
		}
		wg.Wait()
	}
	return Scenario{
		Name: "login_rush",
		Description: "Hundreds of cold-cache users land at once (the 8am effect): " +
			"Recent Jobs collapses onto the one live-queue fill, but each user's " +
			"storage and My Jobs history (a personal account set) are cold keys of " +
			"their own that singleflight cannot collapse, so the fill-admission gate " +
			"must bound concurrent upstream fills and fail the overflow fast with " +
			"retriable 503s — never a 500, never an unbounded upstream pile-up.",
		Steps:     4,
		StepEvery: 30 * time.Second,
		SLO:       SLO{P99: 2 * time.Second, MaxDegradedRate: 0.60, MaxRejectedRate: 0.80},
		// The rush is a latency story, never an availability one: every
		// admitted request waits out the injected stall (well past the
		// chaos latency threshold), so the latency ticket must fire — but
		// the overflow fails fast as 503s, which the availability SLI
		// excludes as intentional backpressure, so the page must stay
		// silent.
		Alerts: AlertExpectation{MustFire: []string{"latency/ticket"}},
		Draw: func(r *Run, rng *rand.Rand) (string, string) {
			user := r.RushUsers[rng.Intn(len(r.RushUsers))]
			return user, rushPaths[rng.Intn(len(rushPaths))]
		},
		Setup: func(r *Run) error {
			r.RushUsers = make([]string, rushUsers)
			for i := range r.RushUsers {
				name := fmt.Sprintf("rush%04d", i)
				r.RushUsers[i] = name
				// A personal account beside the group makes each rush user's
				// My Jobs history a cold key of its own.
				r.Env.Users.AddUser(auth.User{Name: name, Accounts: []string{r.Env.GroupNames[i%len(r.Env.GroupNames)], name}})
				r.Env.Storage.ProvisionUser(name)
			}
			// A real controller under a login rush answers in tens of
			// milliseconds, not instantly; this per-command stall is what
			// makes the cold fills overlap so the admission gate has
			// something to bound, and it sits well past the chaos latency
			// threshold so every admitted fill is a bad latency SLI event.
			r.Faults.SetRules(slurmcli.FaultRule{Latency: 40 * time.Millisecond})
			return nil
		},
		OnStep: func(r *Run, i int) error {
			if i == 0 || i == wavesAt {
				stampede(r)
			}
			return nil
		},
		Verify: func(r *Run) error {
			h := r.Health()
			if h.ServerErrors > 0 {
				return fmt.Errorf("%d server errors during the rush", h.ServerErrors)
			}
			if h.MissingRetryAfter > 0 {
				return fmt.Errorf("%d rejected requests lacked a Retry-After hint", h.MissingRetryAfter)
			}
			cap := r.Server.Config().Resilience.MaxConcurrentFills
			var peak int
			for _, st := range r.Server.FillStats() {
				if st.InFlight != 0 {
					return fmt.Errorf("source %s still has %d fills in flight", st.Source, st.InFlight)
				}
				if cap > 0 && st.Peak > cap {
					return fmt.Errorf("source %s fill peak %d exceeded the cap %d", st.Source, st.Peak, cap)
				}
				if st.Peak > peak {
					peak = st.Peak
				}
			}
			if peak == 0 {
				return fmt.Errorf("the rush drove no concurrent fills at all")
			}
			return nil
		},
	}
}
