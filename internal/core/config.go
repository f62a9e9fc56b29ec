package core

import (
	"time"

	"ooddash/internal/resilience"
	"ooddash/internal/slo"
)

// CacheTTLs holds the per-data-source cache expiration times. The defaults
// reproduce §2.4 of the paper: slow-moving sources (announcements, storage)
// cache for a long time, fast-moving sources backed by slurmctld (squeue)
// for ~30 seconds to balance freshness against controller load.
type CacheTTLs struct {
	Announcements time.Duration // news API (30 min – 1 h in the paper)
	RecentJobs    time.Duration // the one live-queue squeue fill (≈30 s in the paper)
	SystemStatus  time.Duration // sinfo
	Accounts      time.Duration // the one scontrol show assoc fill (the queue part follows RecentJobs)
	Storage       time.Duration // ZFS/GPFS database
	JobHistory    time.Duration // sacct (My Jobs, Job Performance Metrics)
	ClusterNodes  time.Duration // scontrol show node (all nodes)
	JobDetail     time.Duration // scontrol show job <id>
}

// DefaultTTLs returns the paper's cache configuration.
func DefaultTTLs() CacheTTLs {
	return CacheTTLs{
		Announcements: 30 * time.Minute,
		RecentJobs:    30 * time.Second,
		SystemStatus:  60 * time.Second,
		Accounts:      60 * time.Second,
		Storage:       time.Hour,
		JobHistory:    2 * time.Minute,
		ClusterNodes:  60 * time.Second,
		JobDetail:     15 * time.Second,
	}
}

// ResilienceConfig tunes the fault-handling layer between the cache and the
// data sources.
type ResilienceConfig struct {
	// StaleFor is how long past its TTL a cached value stays servable as a
	// degraded fallback when its source is down. Zero means the default
	// (15 minutes); negative disables stale serving entirely.
	StaleFor time.Duration
	// Policy is the base retry/timeout/breaker policy applied to every data
	// source; zero-valued fields fall back to resilience.DefaultPolicy. The
	// server adds the per-source availability classifier itself.
	Policy resilience.Policy
	// MaxConcurrentFills caps how many upstream fills one data source runs
	// at once (the cold-fill admission gate). Singleflight already collapses
	// a stampede on one key, but per-user keys make a login rush up to N
	// distinct cold fills; beyond the cap a fill fails fast — degraded if a stale
	// value is retained, 503 + Retry-After otherwise — instead of queueing
	// on the upstream. Zero means the default (32); negative disables the
	// cap.
	MaxConcurrentFills int
}

// Backend mode names for BackendConfig fields.
const (
	// BackendCLI queries Slurm through the command-line emulation (shell
	// out, parse text) — the data path the paper's dashboard uses.
	BackendCLI = "cli"
	// BackendREST queries Slurm through the slurmrestd-style JSON API
	// (internal/slurmrest) — the Palmetto API direction.
	BackendREST = "rest"
)

// BackendConfig selects, per Slurm daemon, which data path the widget
// routes use. Sources are independent so a deployment can migrate squeue
// traffic to REST while sacct stays on the CLI (or vice versa). Empty
// fields mean BackendCLI. Selecting BackendREST for either source requires
// Deps.REST.
type BackendConfig struct {
	// Slurmctld covers squeue, sinfo, scontrol show node/job, and sdiag.
	Slurmctld string
	// Slurmdbd covers sacct.
	Slurmdbd string
}

// PushConfig tunes the live-update push subsystem: the background refresh
// scheduler and the SSE fan-out on /api/events.
type PushConfig struct {
	// Disabled turns the push path off; /api/events then serves only the
	// legacy delta-poll feed and no background refreshing happens.
	Disabled bool
	// Heartbeat is the SSE keep-alive comment interval (wall clock, since
	// it exists to keep real sockets open). Zero means 15 s; negative
	// disables heartbeats.
	Heartbeat time.Duration
	// Jitter staggers each source's refresh schedule by a deterministic
	// fraction of its TTL in [0, Jitter), so sources registered together do
	// not refresh in lockstep (thundering refresh). Zero means 0.25;
	// negative disables.
	Jitter float64
	// DisableIdlePause keeps refreshing sources that have no subscribers.
	// By default a source with no subscriber is released, with its
	// snapshot, when it next comes due; a later stream registers it afresh.
	DisableIdlePause bool
}

// TraceConfig tunes the span-tracing subsystem (internal/trace). Semantics
// of the zero and negative values are delegated to trace.New: a zero field
// takes the documented default, a negative one disables that feature. The
// tail keeps trace.New's default slowest 5 traces per widget per minute and
// its default 5% baseline of fast, healthy traces.
type TraceConfig struct {
	// Sample is the head-sampling probability (0 = record everything,
	// negative = tracing off).
	Sample float64
	// Slow is the always-retain / slow-log threshold (0 = 500ms).
	Slow time.Duration
	// StoreMax bounds retained traces (0 = 256).
	StoreMax int
}

// SLOConfig tunes the live SLO engine (internal/slo): per-objective SLI
// recording from the instrument middleware, the 28-day error-budget
// ledger, and multi-window burn-rate alerting.
type SLOConfig struct {
	// Objectives overrides the objective set; empty means
	// slo.DefaultObjectives(). Invalid objectives fail NewServer.
	Objectives []slo.Objective
}

// Config configures a dashboard Server.
type Config struct {
	// ClusterName appears in page titles and the CSV exports.
	ClusterName string
	// TTLs are the per-source cache expirations; zero-valued fields fall
	// back to DefaultTTLs.
	TTLs CacheTTLs
	// RecentJobsLimit bounds the homepage Recent Jobs widget.
	RecentJobsLimit int
	// LogTailLines bounds the Job Overview output/error views (§7: the
	// interface shows only the most recent 1000 lines).
	LogTailLines int
	// AnnouncementsLimit bounds the homepage Announcements widget.
	AnnouncementsLimit int
	// UserGuideURL is linked from the Accounts widget header.
	UserGuideURL string
	// Backend selects, per Slurm daemon, the CLI or REST data path.
	Backend BackendConfig
	// Resilience tunes timeouts, retries, circuit breaking, and degraded
	// (stale-while-error) serving.
	Resilience ResilienceConfig
	// Push tunes the live-update subsystem (background refresh + SSE).
	Push PushConfig
	// Trace tunes per-request span tracing and tail-based trace retention.
	Trace TraceConfig
	// SLO tunes the live SLO engine (objectives, error budgets, burn-rate
	// alerting).
	SLO SLOConfig
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	def := DefaultTTLs()
	if c.ClusterName == "" {
		c.ClusterName = "cluster"
	}
	if c.TTLs.Announcements == 0 {
		c.TTLs.Announcements = def.Announcements
	}
	if c.TTLs.RecentJobs == 0 {
		c.TTLs.RecentJobs = def.RecentJobs
	}
	if c.TTLs.SystemStatus == 0 {
		c.TTLs.SystemStatus = def.SystemStatus
	}
	if c.TTLs.Accounts == 0 {
		c.TTLs.Accounts = def.Accounts
	}
	if c.TTLs.Storage == 0 {
		c.TTLs.Storage = def.Storage
	}
	if c.TTLs.JobHistory == 0 {
		c.TTLs.JobHistory = def.JobHistory
	}
	if c.TTLs.ClusterNodes == 0 {
		c.TTLs.ClusterNodes = def.ClusterNodes
	}
	if c.TTLs.JobDetail == 0 {
		c.TTLs.JobDetail = def.JobDetail
	}
	if c.Backend.Slurmctld == "" {
		c.Backend.Slurmctld = BackendCLI
	}
	if c.Backend.Slurmdbd == "" {
		c.Backend.Slurmdbd = BackendCLI
	}
	if c.RecentJobsLimit == 0 {
		c.RecentJobsLimit = 8
	}
	if c.LogTailLines == 0 {
		c.LogTailLines = 1000
	}
	if c.AnnouncementsLimit == 0 {
		c.AnnouncementsLimit = 10
	}
	if c.UserGuideURL == "" {
		c.UserGuideURL = "https://www.rcac.example.edu/knowledge/accounts"
	}
	switch {
	case c.Resilience.StaleFor == 0:
		c.Resilience.StaleFor = 15 * time.Minute
	case c.Resilience.StaleFor < 0:
		c.Resilience.StaleFor = 0
	}
	switch {
	case c.Resilience.MaxConcurrentFills == 0:
		c.Resilience.MaxConcurrentFills = 32
	case c.Resilience.MaxConcurrentFills < 0:
		c.Resilience.MaxConcurrentFills = 0
	}
	switch {
	case c.Push.Heartbeat == 0:
		c.Push.Heartbeat = 15 * time.Second
	case c.Push.Heartbeat < 0:
		c.Push.Heartbeat = 0
	}
	switch {
	case c.Push.Jitter == 0:
		c.Push.Jitter = 0.25
	case c.Push.Jitter < 0:
		c.Push.Jitter = 0
	}
	return c
}
