// Package workload generates deterministic synthetic clusters, users, job
// traces, announcements, and storage usage for the experiments. The paper
// evaluates against Purdue's production clusters and real user activity;
// this generator is the substitute (see DESIGN.md): parameterized job mixes
// with realistic shapes — efficient batch work, wasteful interactive
// sessions, GPU training jobs, job arrays, failures and timeouts — replayed
// through the simulated Slurm scheduler over simulated time.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/clock"
	"ooddash/internal/core"
	"ooddash/internal/newsfeed"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/storagedb"
)

// Spec parameterizes a generated environment.
type Spec struct {
	Seed int64
	// Cluster shape.
	CPUNodes     int // 128-core CPU nodes
	HighmemNodes int
	GPUNodes     int // 64-core, 4-GPU nodes
	// Population.
	Users  int
	Groups int
	// Trace shape.
	HistoryDays     int     // how many days of history to replay
	JobsPerDay      int     // mean submissions per simulated day
	InteractiveFrac float64 // fraction of jobs that are OOD interactive apps
	GPUFrac         float64 // fraction of jobs requesting GPUs
	ArrayFrac       float64 // fraction of submissions that are job arrays
	FailureFrac     float64 // fraction of jobs that fail
	TimeoutFrac     float64 // fraction of jobs that hit their time limit
	// Announcements.
	Announcements int
	// LogLinesPerJob writes synthetic stdout for every Nth job when > 0.
	LogLinesPerJob int
}

// DefaultSpec is the mid-size environment most experiments use: a 512-node
// cluster, 40 users in 8 groups, one week of history at ~3.5k jobs/day
// (≈25k records).
func DefaultSpec() Spec {
	return Spec{
		Seed:            42,
		CPUNodes:        384,
		HighmemNodes:    96,
		GPUNodes:        32,
		Users:           40,
		Groups:          8,
		HistoryDays:     7,
		JobsPerDay:      3500,
		InteractiveFrac: 0.25,
		GPUFrac:         0.08,
		ArrayFrac:       0.05,
		FailureFrac:     0.08,
		TimeoutFrac:     0.03,
		Announcements:   12,
		LogLinesPerJob:  40,
	}
}

// SmallSpec is a fast environment for tests: a handful of nodes, a few
// hundred jobs.
func SmallSpec() Spec {
	s := DefaultSpec()
	s.CPUNodes, s.HighmemNodes, s.GPUNodes = 16, 4, 2
	s.Users, s.Groups = 12, 3
	s.HistoryDays, s.JobsPerDay = 2, 200
	s.Announcements = 6
	return s
}

// Env is a fully provisioned environment: the simulated cluster plus every
// helper service the dashboard needs, sharing one simulated clock.
type Env struct {
	Spec    Spec
	Clock   *clock.Sim
	Cluster *slurm.Cluster
	Runner  slurmcli.Runner
	Users   *auth.Directory
	Storage *storagedb.Database
	Feed    *newsfeed.Feed
	Logs    *core.MemLogStore
	// UserNames and GroupNames list the generated population in order.
	UserNames  []string
	GroupNames []string

	// REST is the in-process slurmrestd-style daemon, set by ProvisionREST
	// (or lazily by NewServerRunner when the config selects the REST
	// backend). RESTTokens holds the bearer tokens it issued.
	REST       *slurmrest.Server
	RESTTokens RESTTokens
}

// RESTTokens are the bearer tokens ProvisionREST issues.
type RESTTokens struct {
	// Dashboard is the staff-scope token the dashboard's REST client uses
	// (per-user visibility stays enforced by the dashboard's own ACLs).
	Dashboard string
	// Service is a read-only infrastructure token (nodes/partitions/diag).
	Service string
	// ByUser maps each generated username to a user-scope token.
	ByUser map[string]string
}

// Build constructs and replays the environment. The result is
// deterministic for a given Spec.
func Build(spec Spec) (*Env, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	start := time.Date(2026, 6, 24, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSim(start)

	groups := make([]string, spec.Groups)
	for i := range groups {
		groups[i] = fmt.Sprintf("grp%02d", i+1)
	}
	users := make([]string, spec.Users)
	for i := range users {
		users[i] = fmt.Sprintf("user%03d", i+1)
	}
	userGroup := make(map[string][]string, spec.Users)

	assocs := make([]slurm.Association, 0, spec.Groups+spec.Users)
	for i, g := range groups {
		limit := 2048 * (1 + i%4) // varied group CPU limits
		assocs = append(assocs, slurm.Association{Account: g, GrpCPULimit: limit})
	}
	for i, u := range users {
		primary := groups[i%len(groups)]
		userGroup[u] = []string{primary}
		assocs = append(assocs, slurm.Association{Account: primary, User: u})
		// A quarter of users belong to a second group.
		if rng.Float64() < 0.25 {
			secondary := groups[rng.Intn(len(groups))]
			if secondary != primary {
				userGroup[u] = append(userGroup[u], secondary)
				assocs = append(assocs, slurm.Association{Account: secondary, User: u})
			}
		}
	}

	cfg := slurm.ClusterConfig{
		Name: "anvil-sim",
		Nodes: []slurm.NodeSpec{
			{NamePrefix: "a", Count: spec.CPUNodes, CPUs: 128, MemMB: 256 * 1024,
				Features: []string{"milan", "avx2"}, Partitions: []string{"cpu", "debug"}},
			{NamePrefix: "b", Count: spec.HighmemNodes, CPUs: 128, MemMB: 1024 * 1024,
				Features: []string{"milan", "bigmem"}, Partitions: []string{"highmem"}},
			{NamePrefix: "g", Count: spec.GPUNodes, CPUs: 64, MemMB: 512 * 1024, GPUs: 4,
				GPUType: "a100", Features: []string{"milan", "a100"}, Partitions: []string{"gpu"}},
		},
		Partitions: []slurm.PartitionSpec{
			{Name: "cpu", MaxTime: 96 * time.Hour, Default: true, Priority: 100},
			{Name: "highmem", MaxTime: 48 * time.Hour, Priority: 100},
			{Name: "gpu", MaxTime: 48 * time.Hour, Priority: 100},
			{Name: "debug", MaxTime: 30 * time.Minute, Priority: 500},
		},
		QOS: []slurm.QOS{
			{Name: "normal"},
			{Name: "debug", Priority: 1000, MaxJobsPerUser: 2},
		},
		Associations: assocs,
	}
	cluster, err := slurm.NewCluster(cfg, clk)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}

	env := &Env{
		Spec:       spec,
		Clock:      clk,
		Cluster:    cluster,
		Runner:     slurmcli.NewSimRunner(cluster),
		Users:      auth.NewDirectory(),
		Storage:    storagedb.New(),
		Feed:       newsfeed.New(clk),
		Logs:       core.NewMemLogStore(),
		UserNames:  users,
		GroupNames: groups,
	}
	for _, u := range users {
		env.Users.AddUser(auth.User{Name: u, Accounts: userGroup[u]})
		env.Storage.ProvisionUser(u)
		env.Storage.SetUsage("/home/"+u, int64(rng.Float64()*25)<<30, int64(rng.Intn(400_000)))
		env.Storage.SetUsage("/scratch/"+u, int64(rng.Float64()*1000)<<30, int64(rng.Intn(1_500_000)))
	}
	for _, g := range groups {
		env.Storage.ProvisionGroup(g, int64(1+rng.Intn(20))<<40)
		env.Storage.SetUsage("/depot/"+g, int64(rng.Float64()*15)<<40, int64(rng.Intn(8_000_000)))
	}

	env.publishAnnouncements(rng)
	env.replayTrace(rng, userGroup)
	return env, nil
}

// publishAnnouncements seeds the news feed with a mix of categories spread
// over the history window, including an active maintenance window.
func (e *Env) publishAnnouncements(rng *rand.Rand) {
	cats := []newsfeed.Category{
		newsfeed.CategoryNews, newsfeed.CategoryNews, newsfeed.CategoryFeature,
		newsfeed.CategoryMaintenance, newsfeed.CategoryOutage,
	}
	base := e.Clock.Now()
	// Spread announcements over the history window, leaving the final two
	// days clear so maintenance reservations end (and their queue backlog
	// drains) inside the replay.
	spreadDays := e.Spec.HistoryDays - 2
	if spreadDays < 1 {
		spreadDays = 1
	}
	step := time.Duration(spreadDays) * 24 * time.Hour / time.Duration(e.Spec.Announcements+1)
	for i := 0; i < e.Spec.Announcements; i++ {
		cat := cats[rng.Intn(len(cats))]
		a := newsfeed.Article{
			Title:    fmt.Sprintf("%s notice %d", cat, i+1),
			Body:     "Synthetic announcement body for experiment reproduction.",
			Category: cat,
			PostedAt: base.Add(time.Duration(i+1) * step),
		}
		if cat == newsfeed.CategoryOutage || cat == newsfeed.CategoryMaintenance {
			a.StartsAt = a.PostedAt.Add(24 * time.Hour)
			a.EndsAt = a.StartsAt.Add(time.Duration(4+rng.Intn(8)) * time.Hour)
		}
		// Maintenance announcements are backed by an actual scheduler
		// reservation, so the System Status widget and the scheduler agree
		// with what the Announcements widget tells users. Most windows are
		// rack-scale (a slice of nodes); roughly one in four is the big
		// full-cluster outage.
		if cat == newsfeed.CategoryMaintenance {
			var nodes []string
			if rng.Intn(4) != 0 {
				all := e.Cluster.Ctl.Nodes()
				span := len(all)/20 + 1
				start := rng.Intn(len(all))
				for k := 0; k < span; k++ {
					nodes = append(nodes, all[(start+k)%len(all)].Name)
				}
			}
			name := fmt.Sprintf("pm-%02d", i+1)
			if _, err := e.Cluster.Ctl.ScheduleMaintenance(name, a.StartsAt, a.EndsAt, nodes, a.Title); err != nil {
				panic(err) // times are constructed valid; a failure is a bug
			}
		}
		e.Feed.Publish(a)
	}
}

// jobKind classifies one synthetic submission.
type jobKind int

const (
	kindBatch jobKind = iota
	kindInteractive
	kindGPU
	kindArray
)

// nextJob draws one submission for the given user.
func (e *Env) nextJob(rng *rand.Rand, user string, accounts []string) slurm.SubmitRequest {
	account := accounts[rng.Intn(len(accounts))]
	kind := kindBatch
	switch f := rng.Float64(); {
	case f < e.Spec.ArrayFrac:
		kind = kindArray
	case f < e.Spec.ArrayFrac+e.Spec.GPUFrac:
		kind = kindGPU
	case f < e.Spec.ArrayFrac+e.Spec.GPUFrac+e.Spec.InteractiveFrac:
		kind = kindInteractive
	}

	profile := slurm.UsageProfile{ExitCode: 0}
	timesOut := false
	switch f := rng.Float64(); {
	case f < e.Spec.FailureFrac:
		profile.FailureState = slurm.StateFailed
		profile.ExitCode = 1 + rng.Intn(125)
	case f < e.Spec.FailureFrac+e.Spec.TimeoutFrac:
		timesOut = true // runs to the limit -> TIMEOUT
	}

	req := slurm.SubmitRequest{
		User:    user,
		Account: account,
		QOS:     "normal",
		WorkDir: "/home/" + user + "/work",
	}
	switch kind {
	case kindInteractive:
		apps := []string{"jupyter", "rstudio", "codeserver", "matlab"}
		app := apps[rng.Intn(len(apps))]
		req.Name = "sys/dashboard/" + app
		req.InteractiveApp = app
		req.SessionID = fmt.Sprintf("%08x", rng.Uint32())
		req.Partition = "cpu"
		req.ReqTRES = slurm.TRES{CPUs: 4 << rng.Intn(3), MemMB: int64(8<<rng.Intn(4)) * 1024}
		req.TimeLimit = time.Duration(4+rng.Intn(8)) * time.Hour
		// Interactive sessions are the canonical low-efficiency workload.
		profile.CPUUtilization = 0.02 + 0.18*rng.Float64()
		profile.MemUtilization = 0.05 + 0.20*rng.Float64()
		if !timesOut && profile.FailureState == "" {
			profile.ActualDuration = time.Duration(10+rng.Intn(110)) * time.Minute
		}
	case kindGPU:
		req.Name = fmt.Sprintf("train-%04d", rng.Intn(10000))
		req.Partition = "gpu"
		gpus := 1 + rng.Intn(4)
		req.ReqTRES = slurm.TRES{CPUs: 8 * gpus, MemMB: int64(64*gpus) * 1024, GPUs: gpus}
		req.TimeLimit = time.Duration(1+rng.Intn(8)) * time.Hour
		profile.CPUUtilization = 0.3 + 0.5*rng.Float64()
		profile.MemUtilization = 0.3 + 0.5*rng.Float64()
		profile.GPUUtilization = 0.5 + 0.5*rng.Float64()
	default: // batch and array
		req.Name = fmt.Sprintf("batch-%04d", rng.Intn(10000))
		req.Partition = "cpu"
		if rng.Float64() < 0.1 {
			req.Partition = "highmem"
		}
		// A slice of batch jobs pin node features (sbatch --constraint).
		if rng.Float64() < 0.15 {
			req.Constraint = []string{"milan", "avx2", "milan,avx2"}[rng.Intn(3)]
		}
		req.ReqTRES = slurm.TRES{CPUs: 1 << rng.Intn(7), MemMB: int64(4<<rng.Intn(6)) * 1024}
		req.TimeLimit = time.Duration(1+rng.Intn(23)) * time.Hour
		profile.CPUUtilization = 0.5 + 0.45*rng.Float64()
		profile.MemUtilization = 0.3 + 0.6*rng.Float64()
		if kind == kindArray {
			req.ArraySize = 4 << rng.Intn(3) // 4..16 tasks
			req.Name = fmt.Sprintf("sweep-%04d", rng.Intn(10000))
		}
	}
	switch {
	case timesOut:
		// Cap the limit so the timeout lands inside the replay window,
		// and let the profile run past it.
		req.TimeLimit = time.Duration(1+rng.Intn(4)) * time.Hour
		profile.ActualDuration = 0
	case profile.FailureState != "":
		profile.ActualDuration = time.Duration(1+rng.Intn(30)) * time.Minute
	case profile.ActualDuration == 0:
		// Most jobs finish well inside their limit.
		frac := 0.1 + 0.7*rng.Float64()
		profile.ActualDuration = time.Duration(float64(req.TimeLimit) * frac)
	}
	req.Profile = profile
	req.StdoutPath = fmt.Sprintf("/home/%s/work/slurm-%s.out", user, req.Name)
	req.StderrPath = fmt.Sprintf("/home/%s/work/slurm-%s.err", user, req.Name)
	return req
}

// replayTrace drives the simulated clock through HistoryDays, submitting
// jobs in five-minute steps and ticking the scheduler so the accounting
// history fills with realistic start/end times and queue waits.
func (e *Env) replayTrace(rng *rand.Rand, userGroup map[string][]string) {
	const step = 5 * time.Minute
	stepsPerDay := int(24 * time.Hour / step)
	perStep := float64(e.Spec.JobsPerDay) / float64(stepsPerDay)

	totalSteps := e.Spec.HistoryDays * stepsPerDay
	logged := 0
	for i := 0; i < totalSteps; i++ {
		// Diurnal load: submissions peak mid-afternoon and bottom out
		// overnight (0.4x .. 1.6x of the mean), like real campus clusters.
		hourOfDay := float64(i%stepsPerDay) / float64(stepsPerDay) * 24
		diurnal := 1 + 0.6*math.Sin((hourOfDay-9)/24*2*math.Pi)
		rate := perStep * diurnal
		// Poisson-ish: floor(rate) + bernoulli(frac).
		n := int(rate)
		if rng.Float64() < rate-float64(n) {
			n++
		}
		for j := 0; j < n; j++ {
			user := e.UserNames[rng.Intn(len(e.UserNames))]
			req := e.nextJob(rng, user, userGroup[user])
			if _, err := e.Cluster.Ctl.Submit(req); err != nil {
				continue // queue-shape errors (e.g. partition limits) are fine
			}
			if e.Spec.LogLinesPerJob > 0 && logged%7 == 0 {
				e.writeLog(req.StdoutPath, e.Spec.LogLinesPerJob)
				e.writeLog(req.StderrPath, 2)
			}
			logged++
		}
		e.Clock.Advance(step)
		e.Cluster.Ctl.Tick()
	}
}

// writeLog fills a synthetic job log.
func (e *Env) writeLog(path string, lines int) {
	for i := 1; i <= lines; i++ {
		e.Logs.Append(path, fmt.Sprintf("[%s] step %d: ok", e.Clock.Now().Format(time.RFC3339), i))
	}
}

// SubmitRandom submits n randomly drawn jobs from random users and ticks
// the scheduler; it returns how many submissions were accepted. Live
// servers and load benchmarks use it to keep the queue moving after the
// initial replay.
func (e *Env) SubmitRandom(rng *rand.Rand, n int) int {
	accepted := 0
	for i := 0; i < n; i++ {
		name := e.UserNames[rng.Intn(len(e.UserNames))]
		u, ok := e.Users.Lookup(name)
		if !ok || len(u.Accounts) == 0 {
			continue
		}
		req := e.nextJob(rng, name, u.Accounts)
		if _, err := e.Cluster.Ctl.Submit(req); err == nil {
			accepted++
		}
	}
	e.Cluster.Ctl.Tick()
	return accepted
}

// NewServer builds a dashboard server over the environment with the
// paper's default cache TTLs. newsBaseURL points at an HTTP server wrapping
// env.Feed (tests use httptest).
func (e *Env) NewServer(newsBaseURL string) (*core.Server, error) {
	return e.NewServerRunner(newsBaseURL, core.Config{}, e.Runner)
}

// NewServerRunner builds a dashboard server over the environment with full
// control of the core configuration and the Slurm runner. An empty
// ClusterName takes the environment's; the environment's services and
// shared clock always win. Each call builds its own REST client, so every
// server meters its own upstream calls (core.Server.UpstreamCalls); the
// fleet tier builds its replicas here over one shared cluster, clock,
// user directory, storage, news feed and log store, like N dashboard
// processes in front of one Slurm.
func (e *Env) NewServerRunner(newsBaseURL string, cfg core.Config, runner slurmcli.Runner) (*core.Server, error) {
	if cfg.ClusterName == "" {
		cfg.ClusterName = e.Cluster.Name
	}
	deps := core.Deps{
		Runner:      runner,
		News:        &newsfeed.Client{BaseURL: newsBaseURL},
		Storage:     e.Storage,
		Users:       e.Users,
		Logs:        e.Logs,
		Clock:       e.Clock,
		Events:      e.Cluster.Ctl,
		RollupStats: e.Cluster.DBD.RollupStats,
	}
	if cfg.Backend.Slurmctld == core.BackendREST || cfg.Backend.Slurmdbd == core.BackendREST {
		if e.REST == nil {
			if err := e.ProvisionREST(slurmrest.Options{}); err != nil {
				return nil, err
			}
		}
		deps.REST = slurmrest.NewClient(e.REST, e.RESTTokens.Dashboard)
		deps.RESTServer = e.REST
	}
	return core.NewServer(cfg, deps)
}

// SynthesizeHistory bulk-loads count synthetic terminal jobs into the
// accounting daemon's job store and rollup pipeline, spread over the two
// years before the current sim time. It stands in for a long-lived
// cluster's accounting depth: the rollup scaling gate and the history
// benchmark use it to scale history 100x/1000x past the replayed trace
// without paying scheduler replay time. Deterministic for a given spec and
// call sequence; returns the number of records loaded. IDs start far above
// the scheduler's range so repeated calls with growing counts only add the
// new tail.
func (e *Env) SynthesizeHistory(offset, count int) int {
	rng := rand.New(rand.NewSource(e.Spec.Seed ^ int64(offset)<<20 ^ 0x4011))
	now := e.Clock.Now()
	const idBase = slurm.JobID(1 << 30)
	partitions := []string{"cpu", "cpu", "cpu", "highmem", "gpu"}
	const spanSec = int64(2 * 366 * 86400)
	jobs := make([]*slurm.Job, 0, count)
	for i := 0; i < count; i++ {
		part := partitions[rng.Intn(len(partitions))]
		end := now.Add(-time.Duration(1+rng.Int63n(spanSec)) * time.Second)
		dur := time.Duration(5+rng.Intn(235)) * time.Minute
		wait := time.Duration(rng.Intn(3600)) * time.Second
		state, exit := slurm.StateCompleted, 0
		switch f := rng.Float64(); {
		case f < 0.08:
			state, exit = slurm.StateFailed, 1+rng.Intn(125)
		case f < 0.11:
			state = slurm.StateTimeout
		}
		cpus := 2 << rng.Intn(4)
		gpus := 0
		if part == "gpu" {
			gpus = 1 + rng.Intn(4)
		}
		tres := slurm.TRES{CPUs: cpus, GPUs: gpus, MemMB: int64(4<<rng.Intn(4)) * 1024, Nodes: 1}
		j := &slurm.Job{
			ID:         idBase + slurm.JobID(offset+i),
			Name:       fmt.Sprintf("hist-%08d", offset+i),
			User:       e.UserNames[rng.Intn(len(e.UserNames))],
			Account:    e.GroupNames[rng.Intn(len(e.GroupNames))],
			Partition:  part,
			QOS:        "normal",
			WorkDir:    "/home/hist",
			State:      state,
			SubmitTime: end.Add(-dur - wait),
			StartTime:  end.Add(-dur),
			EndTime:    end,
			TimeLimit:  dur + time.Duration(30+rng.Intn(90))*time.Minute,
			ReqTRES:    tres,
			AllocTRES:  tres,
			ExitCode:   exit,
		}
		j.Profile.CPUUtilization = 0.2 + 0.7*rng.Float64()
		j.Profile.MemUtilization = 0.1 + 0.8*rng.Float64()
		if gpus > 0 {
			j.Profile.GPUUtilization = 0.3 + 0.6*rng.Float64()
		}
		jobs = append(jobs, j)
	}
	added := e.Cluster.DBD.Backfill(jobs)
	e.Cluster.DBD.AdvanceRollups(now)
	return added
}

// ProvisionREST starts the in-process slurmrestd-style daemon over the
// cluster and issues its tokens: a staff-scope token for the dashboard's
// client, a read-only service token, and one user-scope token per
// generated user (the token-scope probes authenticate with these).
func (e *Env) ProvisionREST(opts slurmrest.Options) error {
	ts := slurmrest.NewTokenStore(e.Users)
	tokens := RESTTokens{
		Dashboard: "wl-dashboard-token",
		Service:   "wl-service-token",
		ByUser:    make(map[string]string, len(e.UserNames)),
	}
	if err := ts.IssueStaff(tokens.Dashboard, "ood-dashboard"); err != nil {
		return err
	}
	if err := ts.IssueService(tokens.Service, "monitoring"); err != nil {
		return err
	}
	for _, u := range e.UserNames {
		tok := "wl-user-" + u
		if err := ts.IssueUser(tok, u); err != nil {
			return err
		}
		tokens.ByUser[u] = tok
	}
	e.REST = slurmrest.NewServer(e.Cluster, ts, opts)
	e.RESTTokens = tokens
	return nil
}
