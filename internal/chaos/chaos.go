// Package chaos is the scenario catalog and drill runtime for the
// dashboard's robustness story. Each scenario scripts one operational storm
// the paper's production setting lives with — maintenance drains, node
// failure cascades, energy-saving power cycles, job-array storms,
// accounting backfills, morning login rushes — as deterministic steps on
// the shared simulated clock: inject faults, move time, tick the scheduler
// and the push subsystem, and assert the resilience layers (breakers,
// stale-while-error, skip-while-degraded scheduling, fill admission, trace
// attribution) did their jobs.
//
// The same catalog backs two harnesses: the in-package drill tests execute
// every scenario on the simulated clock alone (wall-clock free, -race
// clean), and cmd/loadgen's chaos mode replays them under an open-loop
// Poisson request load at 10-100x interactive volume, gating on
// per-scenario SLOs.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
	"ooddash/internal/push"
	"ooddash/internal/slo"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/workload"
)

// Objectives are the chaos-tuned SLO objectives every run installs: the
// production defaults watch 28 days with hour-scale windows, far too slow
// for a 14-minute scripted storm, so drills run the same engine with
// minute-scale windows and a latency threshold sized to the catalog's
// injected stalls (login_rush stalls every upstream command well past it;
// un-stalled simulated handlers finish far under it, so quiet scenarios
// cannot trip it on wall-clock noise).
func Objectives() []slo.Objective {
	return []slo.Objective{
		{
			Name: "availability", Kind: slo.KindAvailability, Target: 0.9,
			Rules: []slo.Rule{{
				Name: "page", Severity: "page", Burn: 2,
				Short: 2 * time.Minute, Long: 5 * time.Minute,
				For: 2 * time.Minute, KeepFor: time.Minute,
			}},
		},
		// The latency target is tighter than availability's: rush traffic
		// mixes stalled Slurm-backed widgets with storage requests that
		// never touch the injected faults, so the bad fraction tops out
		// around 15% — enough to burn a 5% budget at 2x, invisible to a
		// 10% one.
		{
			Name: "latency", Kind: slo.KindLatency, Target: 0.95,
			Threshold: 20 * time.Millisecond,
			Rules: []slo.Rule{{
				Name: "ticket", Severity: "ticket", Burn: 2,
				Short: 2 * time.Minute, Long: 5 * time.Minute,
				For: time.Minute, KeepFor: time.Minute,
			}},
		},
	}
}

// AlertExpectation gates a scenario's SLO alerting behavior, checked by
// Execute after the scenario's own Verify. Keys are "objective/rule" pairs.
// The zero value is the strictest gate: no rule may fire at all — a quiet
// scenario that trips an alert is a false positive and fails the drill.
type AlertExpectation struct {
	// MustFire rules must have fired at least once by scenario end.
	MustFire []string
	// MustResolve rules must have fired and also resolved by scenario end.
	MustResolve []string
	// MayFire rules are exempt from the false-positive gate without being
	// required to fire.
	MayFire []string
}

// AdminUser is the operator identity every run provisions for the admin
// routes (accounting overview, trace inspection).
const AdminUser = "chaosadmin"

// Options configures a chaos run.
type Options struct {
	// Seed makes the run reproducible; it overrides the spec's seed when
	// non-zero and also seeds the fault injector and the run's RNG.
	Seed int64
	// Spec is the workload environment to build; the zero value means
	// workload.SmallSpec().
	Spec workload.Spec
	// FillCap is the per-source concurrent-fill admission cap
	// (core.ResilienceConfig.MaxConcurrentFills; 0 = core's default).
	FillCap int
	// NewsBaseURL points at an HTTP server wrapping the environment's feed.
	// Empty is allowed when no scenario traffic touches announcements.
	NewsBaseURL string
	// Sleep is the fault injector's latency sleep. Nil means the simulated
	// clock's Sleep (injected latency advances simulated time — drills stay
	// wall-clock free); loadgen's wall mode passes time.Sleep so injected
	// latency really stalls requests.
	Sleep func(time.Duration)
}

// Health classifies every response the run's loopback client observed.
type Health struct {
	Requests          int
	OK                int // 2xx
	Degraded          int // 2xx served stale (X-OODDash-Degraded)
	Rejected          int // 503 (breaker open, upstream down, or fill cap)
	ServerErrors      int // 5xx other than 503 — a drill failure anywhere
	MissingRetryAfter int // 503s without a Retry-After >= 1
	Other             int // everything else (4xx)
}

// Run is one scenario execution environment: the workload cluster, the
// fault injector wrapped around its Slurm command surface, and the
// dashboard server built on top — all on one simulated clock.
type Run struct {
	Opts   Options
	Env    *workload.Env
	Faults *slurmcli.FaultRunner
	Server *core.Server
	Rng    *rand.Rand

	// Scenario scratch state.
	Covered   []string      // nodes the scenario drained, downed, or powered off
	JobIDs    []slurm.JobID // jobs the scenario submitted directly
	RushUsers []string      // extra cold-cache users (login rush)
	Scratch   map[string]int64

	mu     sync.Mutex
	health Health
}

// NewRun builds the environment, wraps the fault injector around the Slurm
// runner (so every dashboard command can be delayed or failed), and builds
// the dashboard server with full tracing and the configured fill cap.
func NewRun(opts Options) (*Run, error) {
	spec := opts.Spec
	if spec == (workload.Spec{}) {
		spec = workload.SmallSpec()
	}
	if opts.Seed != 0 {
		spec.Seed = opts.Seed
	}
	env, err := workload.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	sleep := opts.Sleep
	if sleep == nil {
		sleep = env.Clock.Sleep
	}
	faults := slurmcli.NewFaultRunner(env.Runner, spec.Seed, sleep)
	env.Runner = faults // the server built below sees the injected surface
	server, err := env.NewServerConfig(opts.NewsBaseURL, core.Config{
		Resilience: core.ResilienceConfig{MaxConcurrentFills: opts.FillCap},
		// Deterministic cadence: sources refresh with no stagger and keep
		// refreshing without subscribers, so drills can count cycles.
		Push: core.PushConfig{DisableIdlePause: true, Jitter: -1},
		// Record every request; tail retention keeps the interesting ones.
		Trace: core.TraceConfig{Sample: 1},
		// Minute-scale objectives so the scripted storms can walk alerts
		// through fire and resolve on the simulated clock.
		SLO: core.SLOConfig{Objectives: Objectives()},
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	env.Users.AddUser(auth.User{Name: AdminUser, Admin: true})
	return &Run{
		Opts:    opts,
		Env:     env,
		Faults:  faults,
		Server:  server,
		Rng:     rand.New(rand.NewSource(spec.Seed)),
		Scratch: make(map[string]int64),
	}, nil
}

// Close shuts the run's server down (its background work and push subsystem).
func (r *Run) Close() { r.Server.Close() }

// Step executes one scenario step: the scenario's action, then one
// StepEvery advance of the shared clock with a scheduler tick and a push
// tick, then the scenario's per-step invariant check.
func (r *Run) Step(sc Scenario, i int) error {
	if sc.OnStep != nil {
		if err := sc.OnStep(r, i); err != nil {
			return fmt.Errorf("chaos: %s step %d: %w", sc.Name, i, err)
		}
	}
	r.Env.Clock.Advance(sc.StepEvery)
	r.Env.Cluster.Ctl.Tick()
	r.Server.TickPush()
	if sc.Check != nil {
		if err := sc.Check(r, i); err != nil {
			return fmt.Errorf("chaos: %s step %d: %w", sc.Name, i, err)
		}
	}
	return nil
}

// Execute runs the whole scenario: setup, every step, verification.
func (r *Run) Execute(sc Scenario) error {
	if sc.Setup != nil {
		if err := sc.Setup(r); err != nil {
			return fmt.Errorf("chaos: %s setup: %w", sc.Name, err)
		}
	}
	for i := 0; i < sc.Steps; i++ {
		if err := r.Step(sc, i); err != nil {
			return err
		}
	}
	if sc.Verify != nil {
		if err := sc.Verify(r); err != nil {
			return fmt.Errorf("chaos: %s verify: %w", sc.Name, err)
		}
	}
	if err := r.CheckAlerts(sc.Alerts); err != nil {
		return fmt.Errorf("chaos: %s alerts: %w", sc.Name, err)
	}
	return nil
}

// CheckAlerts verifies the run's SLO alerting against a scenario's
// expectation: every MustFire rule fired, every MustResolve rule fired and
// resolved, and nothing outside the expectation fired at all (false
// positives fail the drill). The loadgen wall harness deliberately skips
// this — under open-loop load at real wall latencies the alert timeline is
// not deterministic; only the scripted simulated-clock drills gate on it.
func (r *Run) CheckAlerts(exp AlertExpectation) error {
	eng := r.Server.SLO()
	split := func(key string) (string, string, error) {
		obj, rule, ok := strings.Cut(key, "/")
		if !ok || obj == "" || rule == "" {
			return "", "", fmt.Errorf("bad alert key %q, want objective/rule", key)
		}
		return obj, rule, nil
	}
	allowed := make(map[string]bool)
	for _, keys := range [][]string{exp.MustFire, exp.MustResolve, exp.MayFire} {
		for _, k := range keys {
			allowed[k] = true
		}
	}
	for _, k := range exp.MustFire {
		obj, rule, err := split(k)
		if err != nil {
			return err
		}
		fired, _, ok := eng.AlertCounts(obj, rule)
		if !ok {
			return fmt.Errorf("expected rule %s not configured", k)
		}
		if fired == 0 {
			return fmt.Errorf("rule %s never fired", k)
		}
	}
	for _, k := range exp.MustResolve {
		obj, rule, err := split(k)
		if err != nil {
			return err
		}
		fired, resolved, ok := eng.AlertCounts(obj, rule)
		if !ok {
			return fmt.Errorf("expected rule %s not configured", k)
		}
		if fired == 0 || resolved == 0 {
			return fmt.Errorf("rule %s fired=%d resolved=%d, want both >= 1", k, fired, resolved)
		}
	}
	for _, o := range eng.Status().Objectives {
		for _, a := range o.Alerts {
			key := o.Name + "/" + a.Rule
			if a.Fired > 0 && !allowed[key] {
				return fmt.Errorf("false positive: rule %s fired %d time(s)", key, a.Fired)
			}
		}
	}
	return nil
}

// loopRecorder captures a loopback response without a network round-trip.
type loopRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (l *loopRecorder) Header() http.Header         { return l.header }
func (l *loopRecorder) WriteHeader(code int)        { l.status = code }
func (l *loopRecorder) Write(p []byte) (int, error) { return l.body.Write(p) }
func (l *loopRecorder) Flush()                      {}

// Get issues one in-process request as user and classifies the response
// into the run's health counters. Drills use it for scenario traffic;
// loadgen's chaos mode sends real HTTP instead and keeps its own tallies.
func (r *Run) Get(user, path string) (status int, degraded bool) {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		panic(fmt.Sprintf("chaos: Get %s: %v", path, err))
	}
	req.Header.Set(auth.UserHeader, user)
	rec := &loopRecorder{header: make(http.Header), status: http.StatusOK}
	r.Server.ServeHTTP(rec, req)
	degraded = rec.header.Get("X-OODDash-Degraded") != ""

	r.mu.Lock()
	defer r.mu.Unlock()
	r.health.Requests++
	switch {
	case rec.status >= 200 && rec.status < 300:
		r.health.OK++
		if degraded {
			r.health.Degraded++
		}
	case rec.status == http.StatusServiceUnavailable:
		r.health.Rejected++
		if ra, err := strconv.Atoi(rec.header.Get("Retry-After")); err != nil || ra < 1 {
			r.health.MissingRetryAfter++
		}
	case rec.status >= 500:
		r.health.ServerErrors++
	default:
		r.health.Other++
	}
	return rec.status, degraded
}

// Health returns the loopback traffic classification so far.
func (r *Run) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health
}

// RegisterPush adds a background refresh source that re-fetches path as
// user on the given cadence — the same loopback shape the SSE subscribe
// path wires up in core, so drills can observe skip-while-degraded
// scheduling without holding an event stream open.
func (r *Run) RegisterPush(widget, key, path, user string, ttl time.Duration) error {
	_, err := r.Server.PushScheduler().Register(push.Source{
		Widget: widget, Key: key, TTL: ttl,
		Fetch: func(ctx context.Context) ([]byte, bool, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
			if err != nil {
				return nil, false, err
			}
			req.Header.Set(auth.UserHeader, user)
			req.Header.Set("X-OODDash-Push", "refresh")
			rec := &loopRecorder{header: make(http.Header), status: http.StatusOK}
			r.Server.ServeHTTP(rec, req)
			degraded := rec.header.Get("X-OODDash-Degraded") != ""
			if rec.status != http.StatusOK {
				return nil, false, fmt.Errorf("chaos: push refresh %s: status %d", path, rec.status)
			}
			payload := bytes.TrimRight(rec.body.Bytes(), "\n")
			return append([]byte(nil), payload...), degraded, nil
		},
	})
	return err
}

// SubmitJob submits one job (defaulting QOS) and records its ID for
// verification.
func (r *Run) SubmitJob(req slurm.SubmitRequest) (slurm.JobID, error) {
	if req.QOS == "" {
		req.QOS = "normal"
	}
	id, err := r.Env.Cluster.Ctl.Submit(req)
	if err == nil {
		r.JobIDs = append(r.JobIDs, id)
	}
	return id, err
}

// jobStarted reports whether a submitted job ever left PENDING: still live
// and past pending, or already recorded by the accounting daemon.
func (r *Run) jobStarted(id slurm.JobID) bool {
	if j := r.Env.Cluster.Ctl.Job(id); j != nil {
		return j.State != slurm.StatePending
	}
	return r.Env.Cluster.DBD.Job(id) != nil
}
