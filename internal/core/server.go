package core

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/cache"
	"ooddash/internal/clock"
	"ooddash/internal/newsfeed"
	"ooddash/internal/push"
	"ooddash/internal/resilience"
	"ooddash/internal/slo"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/storagedb"
	"ooddash/internal/trace"
)

// Deps are the external systems the dashboard talks to (Figure 1's data
// flow): Slurm via its command-line surface, the center's news API, the
// storage quota database, the user directory, and the job log files.
type Deps struct {
	Runner  slurmcli.Runner
	News    *newsfeed.Client
	Storage *storagedb.Database
	Users   *auth.Directory
	Logs    LogStore
	// Clock is the server's time source; nil means the wall clock. It must
	// be the same instance that drives the simulated cluster so cache TTLs
	// and Slurm time agree in tests and benchmarks. Retry backoff sleeps on
	// it, so on a simulated clock backoff advances simulated time.
	Clock clock.Clock
	// REST is the slurmrestd-style client; required when Config.Backend
	// selects BackendREST for either source. The dashboard's token should
	// carry staff scope — per-user visibility is enforced by the
	// dashboard's own route ACLs, as in the CLI path.
	REST *slurmrest.Client
	// RESTServer, when the REST daemon runs in-process, lets the dashboard
	// bridge its scope-denial and redaction counters onto /metrics.
	RESTServer *slurmrest.Server
	// Events enables the real-time monitoring feed (§9 extension); nil
	// disables the /api/events route's data source.
	Events EventSource
	// RollupStats, when set, snapshots the accounting daemon's rollup store
	// (bucket counts, compactions, eviction) for /metrics. The in-process
	// simulator wires it to DBD.RollupStats; a real deployment would scrape
	// slurmdbd directly instead.
	RollupStats func() slurm.RollupStats
}

// Server is the dashboard backend: a set of JSON API routes (one per
// widget), HTML page handlers, and the server-side cache in front of every
// data source.
type Server struct {
	cfg    Config
	runner slurmcli.Runner
	// ctldBk/dbdBk are the per-daemon data paths the routes read through:
	// CLI shell-out or the REST client, per Config.Backend (backend.go).
	ctldBk  slurmBackend
	dbdBk   slurmBackend
	news    *newsfeed.Client
	storage *storagedb.Database
	users   *auth.Directory
	logs    LogStore
	clock   clock.Clock
	events  EventSource
	cache   *cache.Cache
	res     *resilience.Set
	mux     *http.ServeMux
	widgets []Widget
	// pageTTLs holds each widget's TTL in seconds for the pages' data-ttl,
	// and pagePush the push widgets' names for their data-push.
	pageTTLs map[string]int64
	pagePush map[string]string

	// fills are the per-source cold-fill admission gates (see admission.go):
	// they bound concurrent upstream fills where singleflight cannot (many
	// distinct cold keys at once).
	fills map[string]*fillGate

	// Rendered-response layer (see render.go): materialized JSON bytes and
	// ETags keyed by widget/variant/URI, plus its traffic counters.
	rendered *cache.Cache
	renderCounters

	// Periodic purge of both caches (see purge.go): entries past their stale
	// grace window are dropped so a long-running server's memory is bounded.
	purgeMu     sync.Mutex
	lastPurge   time.Time
	purgedTotal atomic.Int64

	// obsm holds the metrics registry and every metric family; accessLog,
	// when set, receives one structured line per instrumented request.
	obsm      *serverObs
	accessLog func(line string)

	// upstream counts the upstream Slurm calls this server issued, by
	// daemon: CLI commands and REST requests alike (observeCommand).
	upstreamMu sync.Mutex
	upstream   map[string]int64

	// tracer is the span-tracing subsystem: root spans from the instrument
	// middleware and the push refresh loop, tail-sampled retention in its
	// store, exposed on the admin trace routes.
	tracer *trace.Tracer

	// Push subsystem: the versioned snapshot hub fanning out to SSE
	// clients, the background refresh scheduler feeding it, the shutdown
	// broadcast channel, and the StartPush loop Close waits for.
	pushHub   *push.Hub
	pushSched *push.Scheduler
	pushDone  chan struct{}
	tickLoop  sync.WaitGroup
	closeOnce sync.Once

	// rollupStats feeds the rollup store gauges on /metrics (may be nil).
	rollupStats func() slurm.RollupStats

	// sloEng is the live SLO engine: the instrument middleware records
	// every response into it, TickPush advances its alert state machines,
	// and /api/admin/slo plus the ooddash_slo_* families render it. sloOff
	// gates hit-path recording (the overhead-ablation benchmarks toggle it).
	sloEng *slo.Engine
	sloOff atomic.Bool
}

// NewServer builds the dashboard from its dependencies.
func NewServer(cfg Config, deps Deps) (*Server, error) {
	if deps.Runner == nil {
		return nil, fmt.Errorf("core: NewServer: missing Slurm runner")
	}
	if deps.Users == nil {
		return nil, fmt.Errorf("core: NewServer: missing user directory")
	}
	if deps.Clock == nil {
		deps.Clock = clock.Real{}
	}
	if deps.Logs == nil {
		deps.Logs = NewMemLogStore()
	}
	if len(cfg.SLO.Objectives) > 0 {
		if err := slo.Validate(cfg.SLO.Objectives); err != nil {
			return nil, fmt.Errorf("core: NewServer: %w", err)
		}
	}
	s := &Server{
		cfg:     cfg.withDefaults(),
		runner:  deps.Runner,
		news:    deps.News,
		storage: deps.Storage,
		users:   deps.Users,
		logs:    deps.Logs,
		clock:   deps.Clock,
		events:  deps.Events,
		cache:   cache.New(deps.Clock),
		mux:     http.NewServeMux(),
	}
	s.rollupStats = deps.RollupStats
	s.upstream = make(map[string]int64, 2)
	// The SLO engine precedes the metrics registry so its budget and alert
	// collectors can be registered; it shares the server clock, so chaos
	// drills evaluate alerts deterministically on simulated time.
	s.sloEng = slo.New(deps.Clock, s.cfg.SLO.Objectives)
	s.rendered = cache.New(deps.Clock)
	s.lastPurge = deps.Clock.Now()
	s.fills = newFillGates(s.cfg.Resilience.MaxConcurrentFills)
	s.res = resilience.NewSet(resilience.Options{
		Clock: deps.Clock,
		Seed:  1,
		OnStateChange: func(c resilience.StateChange) {
			log.Printf("core: breaker %s: %s -> %s", c.Source, c.From, c.To)
		},
		OnResult: s.observeUpstream,
	})
	// Push plumbing comes before the metrics registry so its collectors can
	// read hub and scheduler stats; the scheduler's refresh hook records
	// into obsm, which is always set by the time any refresh can run.
	s.pushHub = push.NewHub(deps.Clock)
	s.pushDone = make(chan struct{})
	s.pushSched = push.NewScheduler(push.SchedulerOptions{
		Clock:       deps.Clock,
		Hub:         s.pushHub,
		Jitter:      s.cfg.Push.Jitter,
		ReleaseIdle: !s.cfg.Push.DisableIdlePause,
		OnRefresh: func(widget string, d time.Duration, published bool, err error) {
			s.observeRefresh(widget, d, published, err)
		},
	})
	// The tracer precedes the metrics registry so its store gauges can be
	// registered as collectors; its hooks read s.obsm/s.accessLog lazily (both
	// are set before any request can be served).
	s.tracer = trace.New(s.traceConfig())
	s.obsm = newServerObs(s)
	if deps.RESTServer != nil {
		deps.RESTServer.RegisterMetrics(s.obsm.reg)
	}
	// Every Slurm command the routes issue goes through the metered wrapper,
	// so /metrics attributes dashboard-side RPC cost per command and daemon.
	s.runner = slurmcli.NewMeteredRunner(deps.Runner, s.observeCommand)
	if err := s.buildBackends(deps.REST); err != nil {
		return nil, err
	}
	// REST calls feed the same per-command metrics as CLI commands, labelled
	// "rest:<endpoint>", so /metrics compares the two paths directly.
	if deps.REST != nil && deps.REST.Observe == nil {
		deps.REST.Observe = func(endpoint, daemon string, d time.Duration, err error) {
			s.observeCommand("rest:"+endpoint, daemon, d, err)
		}
	}
	// The Slurm sources get the availability classifier so semantic errors
	// (unknown job, bad flags) neither retry nor trip the breaker; for the
	// news API and storage database every error counts.
	slurmPolicy := s.cfg.Resilience.Policy
	slurmPolicy.Classify = slurmcli.IsUnavailable
	s.res.Register(srcCtld, slurmPolicy)
	s.res.Register(srcDBD, slurmPolicy)
	s.res.Register(srcNews, s.cfg.Resilience.Policy)
	s.res.Register(srcStorage, s.cfg.Resilience.Policy)
	s.registerWidgets()
	if err := s.Mount(s.mux); err != nil {
		return nil, err
	}
	s.registerPages(s.mux)
	return s, nil
}

// ServeHTTP implements http.Handler with every widget and page mounted.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Cache exposes the server-side cache for inspection (experiments read its
// hit/miss statistics) and for the cache-off ablation (Disabled flag).
func (s *Server) Cache() *cache.Cache { return s.cache }

// ShareCaches points s at from's data cache and rendered cache, so every
// replica behind one load balancer reads one cache tier — the way one
// Rails.cache store serves every app server. Call it after NewServer and
// before s takes traffic.
func (s *Server) ShareCaches(from *Server) {
	s.cache, s.rendered = from.cache, from.rendered
}

// RenderedCache exposes the rendered-response cache for inspection.
func (s *Server) RenderedCache() *cache.Cache { return s.rendered }

// Config returns the effective configuration (defaults applied).
func (s *Server) Config() Config { return s.cfg }

// Resilience exposes the per-source breaker set for inspection (health
// routes, experiments, failure drills).
func (s *Server) Resilience() *resilience.Set { return s.res }

// traceConfig is the tracer's configuration: the server's TraceConfig on
// its clock, baseline retention at trace.New's default, and the hooks that
// feed the span histogram and the slow-request log line.
func (s *Server) traceConfig() trace.Config {
	return trace.Config{
		Clock:    s.clock,
		Sample:   s.cfg.Trace.Sample,
		Slow:     s.cfg.Trace.Slow,
		StoreMax: s.cfg.Trace.StoreMax,
		OnSpan: func(layer string, seconds float64) {
			s.obsm.traceSpans.With(layer).Observe(seconds)
		},
		OnSlow: func(sum trace.Summary) {
			line := fmt.Sprintf("slow-request trace=%s widget=%s origin=%s duration_ms=%.1f spans=%d degraded=%t error=%t",
				sum.ID, sum.Widget, sum.Origin, sum.DurationMS, sum.Spans, sum.Degraded, sum.Error)
			if s.accessLog != nil {
				s.accessLog(line)
			} else {
				log.Printf("core: %s", line)
			}
		},
	}
}

// Tracer exposes the span-tracing subsystem (admin routes, tests,
// benchmarks).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// SetTraceSample adjusts head sampling at runtime: 1 records every request,
// a fraction records that share, negative disables tracing entirely. The
// hotpath benchmark uses this to measure the sampled-out overhead.
func (s *Server) SetTraceSample(p float64) { s.tracer.SetSample(p) }

// SLO exposes the live SLO engine (fleet aggregation, tests, drills).
func (s *Server) SLO() *slo.Engine { return s.sloEng }

// SetSLORecordingDisabled toggles hit-path SLI recording at runtime. The
// overhead benchmark measures the same request stream with recording off
// and on to prove the delta stays within its alloc budget.
func (s *Server) SetSLORecordingDisabled(off bool) { s.sloOff.Store(off) }

// runnerCtx returns the server's runner bound to ctx so Slurm commands made
// on behalf of this request contribute spans; outside a traced request it is
// the runner itself.
func (s *Server) runnerCtx(ctx context.Context) slurmcli.Runner {
	return slurmcli.Bind(ctx, s.runner)
}

// Widget is one modular dashboard feature: a named JSON API route with its
// cache TTL. Widgets are self-contained so they can be mounted individually
// on another mux — the paper's migration story (§2.3, §8).
type Widget struct {
	// Name identifies the widget ("recent_jobs", "cluster_status", ...).
	Name string
	// Route is the mux pattern, e.g. "GET /api/recent_jobs".
	Route string
	// TTL is the server-cache expiration for the widget's data source, and
	// the client-cache TTL its page sections carry (data-ttl).
	TTL time.Duration
	// DataSource documents Table 1's mapping for the widget.
	DataSource string
	// Handler serves the route: serve behind what the widget's visibility
	// class requires of every request and response (guard, visibility.go).
	Handler http.HandlerFunc

	// serve is the widget's own handler, given the authenticated caller.
	serve func(http.ResponseWriter, *http.Request, *auth.User)
	// vis says who may see the widget's bytes and who may share them.
	vis visibility
	// push puts the widget on the /api/events stream, and in the default
	// subscription when a client names none (routes_push.go).
	push bool
	// selfObserving widgets get no span and no SLI record from the
	// instrument middleware (observe.go).
	selfObserving bool
}

// path is the URL path of the widget's route ("GET /api/x" → "/api/x").
func (w *Widget) path() string { return w.Route[strings.IndexByte(w.Route, ' ')+1:] }

// widget returns the table entry named name, or nil.
func (s *Server) widget(name string) *Widget {
	for i := range s.widgets {
		if s.widgets[i].Name == name {
			return &s.widgets[i]
		}
	}
	return nil
}

// registerWidgets builds the widget table and puts each handler behind its
// visibility class (guard). Order matches Table 1. The five homepage widgets are
// the §2.4 set whose polling the SSE stream replaces.
func (s *Server) registerWidgets() {
	s.widgets = []Widget{
		{Name: "announcements", Route: "GET /api/announcements",
			TTL: s.cfg.TTLs.Announcements, DataSource: "API call to center news page",
			serve: s.handleAnnouncements, vis: visPublic, push: true},
		{Name: "recent_jobs", Route: "GET /api/recent_jobs",
			TTL: s.cfg.TTLs.RecentJobs, DataSource: "squeue (Slurm)",
			serve: s.handleRecentJobs, vis: visUser, push: true},
		{Name: "system_status", Route: "GET /api/system_status",
			TTL: s.cfg.TTLs.SystemStatus, DataSource: "sinfo (Slurm)",
			serve: s.handleSystemStatus, vis: visPublic, push: true},
		{Name: "accounts", Route: "GET /api/accounts",
			TTL: s.cfg.TTLs.Accounts, DataSource: "scontrol show assoc (Slurm)",
			serve: s.handleAccounts, vis: visAccountSet, push: true},
		{Name: "accounts_export", Route: "GET /api/accounts/{account}/export.csv",
			TTL: s.cfg.TTLs.Accounts, DataSource: "scontrol show assoc (Slurm)",
			serve: s.handleAccountExport, vis: visGated},
		{Name: "accounts_export_xlsx", Route: "GET /api/accounts/{account}/export.xlsx",
			TTL: s.cfg.TTLs.Accounts, DataSource: "scontrol show assoc (Slurm)",
			serve: s.handleAccountExportXLSX, vis: visGated},
		{Name: "storage", Route: "GET /api/storage",
			TTL: s.cfg.TTLs.Storage, DataSource: "ZFS and GPFS storage database",
			serve: s.handleStorage, vis: visUser, push: true},
		{Name: "my_jobs", Route: "GET /api/myjobs",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sacct (Slurm)",
			serve: s.handleMyJobs, vis: visAccountSet},
		{Name: "my_jobs_export", Route: "GET /api/myjobs/export.csv",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sacct (Slurm)",
			serve: s.handleMyJobsExport, vis: visAccountSet},
		{Name: "my_jobs_charts", Route: "GET /api/myjobs/charts",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sacct (Slurm)",
			serve: s.handleMyJobsCharts, vis: visAccountSet},
		{Name: "job_perf", Route: "GET /api/jobperf",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sreport rollup (slurmdbd)",
			serve: s.handleJobPerf, vis: visUser},
		{Name: "cluster_status", Route: "GET /api/cluster_status",
			TTL: s.cfg.TTLs.ClusterNodes, DataSource: "scontrol show node (Slurm)",
			serve: s.handleClusterStatus, vis: visPublic},
		{Name: "node_overview", Route: "GET /api/node/{name}",
			TTL: s.cfg.TTLs.ClusterNodes, DataSource: "scontrol show node (Slurm)",
			serve: s.handleNodeOverview, vis: visPublic},
		{Name: "node_jobs", Route: "GET /api/node/{name}/jobs",
			TTL: s.cfg.TTLs.RecentJobs, DataSource: "squeue (Slurm)",
			serve: s.handleNodeJobs, vis: visPublic},
		{Name: "job_overview", Route: "GET /api/job/{id}",
			TTL: s.cfg.TTLs.JobDetail, DataSource: "scontrol show job (Slurm)",
			serve: s.handleJobOverview, vis: visUser},
		{Name: "job_logs", Route: "GET /api/job/{id}/logs",
			TTL: 0, DataSource: "job stdout/stderr files",
			serve: s.handleJobLogs, vis: visUser},
		{Name: "job_array", Route: "GET /api/job/{id}/array",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sacct (Slurm)",
			serve: s.handleJobArray, vis: visGated},
		// §9 extensions: real-time monitoring, job analysis, admin accounting.
		{Name: "events", Route: "GET /api/events",
			TTL: 0, DataSource: "controller event feed (extension)",
			serve: s.handleEvents, vis: visUser, selfObserving: true},
		{Name: "insights", Route: "GET /api/insights",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sacct (Slurm)",
			serve: s.handleInsights, vis: visUser},
		{Name: "admin_overview", Route: "GET /api/admin/overview",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sacct (Slurm)",
			serve: s.handleAdminOverview, vis: visStaff},
		{Name: "jobperf_timeseries", Route: "GET /api/jobperf/timeseries",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sreport rollup (slurmdbd)",
			serve: s.handleJobPerfTimeseries, vis: visUser},
		// Long-range usage views, affordable only through the rollup pipeline.
		{Name: "usage_cluster", Route: "GET /api/usage/cluster",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sreport rollup (slurmdbd)",
			serve: s.handleUsageCluster, vis: visPublic},
		{Name: "usage_accounts", Route: "GET /api/usage/accounts",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sreport rollup (slurmdbd)",
			serve: s.handleUsageAccounts, vis: visPublic},
		{Name: "usage_efficiency", Route: "GET /api/usage/efficiency",
			TTL: s.cfg.TTLs.JobHistory, DataSource: "sreport rollup (slurmdbd)",
			serve: s.handleUsageEfficiency, vis: visPublic},
		{Name: "admin_health", Route: "GET /api/admin/health",
			TTL: 0, DataSource: "backend cache stats + sdiag (Slurm)",
			serve: s.handleAdminHealth, vis: visStaff},
		{Name: "metrics", Route: "GET /metrics",
			TTL: 0, DataSource: "backend cache stats + sdiag (Slurm)",
			serve: s.handleMetrics, vis: visStaff, selfObserving: true},
		{Name: "admin_slo", Route: "GET /api/admin/slo",
			TTL: 0, DataSource: "SLO engine (error budgets + burn-rate alerts)",
			serve: s.handleAdminSLO, vis: visStaff, selfObserving: true},
		{Name: "admin_traces", Route: "GET /api/admin/traces",
			TTL: 0, DataSource: "trace store (tail-sampled request spans)",
			serve: s.handleAdminTraces, vis: visStaff, selfObserving: true},
		{Name: "admin_trace", Route: "GET /api/admin/traces/{id}",
			TTL: 0, DataSource: "trace store (tail-sampled request spans)",
			serve: s.handleAdminTrace, vis: visStaff, selfObserving: true},
	}
	for i := range s.widgets {
		s.widgets[i].Handler = s.guard(&s.widgets[i])
	}
}

// Widgets returns the widget table (copies; handlers are shared).
func (s *Server) Widgets() []Widget {
	out := make([]Widget, len(s.widgets))
	copy(out, s.widgets)
	return out
}

// Mount registers widgets onto an arbitrary mux. With no names, every
// widget is mounted; otherwise only the named subset, letting another
// dashboard adopt individual features in isolation. Duplicate names in the
// subset are tolerated (each widget mounts once). Every mounted handler is
// wrapped with the observability middleware: trace IDs, per-widget latency
// histograms, status counters, and the access log.
func (s *Server) Mount(mux *http.ServeMux, names ...string) error {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	mounted := 0
	for i := range s.widgets {
		w := &s.widgets[i]
		if len(names) > 0 && !want[w.Name] {
			continue
		}
		mux.HandleFunc(w.Route, s.instrument(w, w.Handler))
		mounted++
		delete(want, w.Name)
	}
	if len(names) > 0 && len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return fmt.Errorf("core: Mount: unknown widgets: %s", strings.Join(unknown, ", "))
	}
	if mounted == 0 {
		return fmt.Errorf("core: Mount: no widgets mounted")
	}
	return nil
}
