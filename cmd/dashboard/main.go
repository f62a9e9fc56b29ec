// Command dashboard runs the full stack: a simulated Slurm cluster with a
// continuously evolving workload, the news feed, the storage database, and
// the Open OnDemand-style dashboard web server on top.
//
// Usage:
//
//	dashboard [-addr :8080] [-small] [-seed 42] [-warp 60]
//	          [-backend cli|rest|slurmctld=rest,slurmdbd=cli]
//	          [-replicas 3]
//	          [-no-push] [-push-interval 1s] [-push-heartbeat 15s]
//	          [-trace-sample 1] [-trace-slow-ms 500] [-trace-store-max 256]
//	          [-fault-cmd squeue] [-fault-rate 0.2] [-fault-outage]
//	          [-fault-latency 300ms] [-fault-jitter 200ms]
//	          [-fault-burst-len 3 -fault-burst-every 10]
//	          [-fault-after 30s] [-fault-seed 1]
//
// Open http://localhost:8080/ with an X-Remote-User header (any generated
// user, e.g. user001) to browse the dashboard; the JSON API lives under
// /api/. The -warp factor compresses simulated time: with -warp 60, one
// wall-clock second advances the cluster by a minute, so job churn is
// visible while you watch.
//
// -backend selects the Slurm data path per source daemon: "cli" (default)
// shells out through the simulated command runner; "rest" goes through the
// in-process slurmrestd-style JSON API with a scoped staff token. A mixed
// spelling like "slurmctld=rest,slurmdbd=cli" migrates one source at a time.
//
// -replicas N (N > 1) turns on the scale-out fleet tier: N in-process
// dashboard replicas behind a simulated round-robin load balancer, all
// reading one shared data cache and rendered cache, so upstream Slurm load
// stays one fill per key per TTL however many replicas serve. With
// -ops-addr set, the fleet's own metrics are exposed at /metrics/fleet
// there.
//
// The -fault-* flags arm the fault-injection layer for live failure drills:
// -fault-cmd picks the Slurm command to sabotage ("*" for all), and the
// remaining flags shape the fault (added latency, transient error rate,
// deterministic bursts, or a full outage). -fault-after delays arming so the
// fault lands mid-run against warm caches — watch widgets flip to degraded
// (stale) mode on /api/admin/health and /metrics, or measure it with
// cmd/loadgen's live mode. Faults wrap the command runner, so they reach
// CLI-served sources only: the dashboard refuses to start when -fault-cmd
// names a command (or "*") whose daemon -backend serves over REST.
//
// -ops-addr starts a second, operators-only listener carrying net/http/pprof
// (bind it to localhost — it is deliberately kept off the user-facing mux so
// profiling endpoints never share a port with proxied user traffic).
// -access-log enables one structured line per API request, each carrying the
// request's trace ID — the same ID returned to clients in X-OODDash-Trace —
// so a slow reload reported by a user can be joined against server logs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
	"ooddash/internal/fleet"
	"ooddash/internal/slo"
	"ooddash/internal/slurmcli"
	"ooddash/internal/workload"
)

// parseBackend turns the -backend flag into a per-source BackendConfig.
// Accepts a bare mode ("cli", "rest") applied to both daemons, or a
// comma-separated list of source=mode pairs ("slurmctld=rest,slurmdbd=cli").
// Any other mode is refused here, before the workload is built.
func parseBackend(s string) (core.BackendConfig, error) {
	var bc core.BackendConfig
	s = strings.TrimSpace(s)
	if s == "" {
		return bc, nil
	}
	checkMode := func(mode string) error {
		if mode != core.BackendCLI && mode != core.BackendREST {
			return fmt.Errorf("unknown mode %q (want %s or %s)", mode, core.BackendCLI, core.BackendREST)
		}
		return nil
	}
	if !strings.Contains(s, "=") {
		bc.Slurmctld, bc.Slurmdbd = s, s
		return bc, checkMode(s)
	}
	for _, part := range strings.Split(s, ",") {
		source, mode, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return bc, fmt.Errorf("malformed %q (want source=mode)", part)
		}
		if err := checkMode(mode); err != nil {
			return bc, err
		}
		switch source {
		case "slurmctld":
			bc.Slurmctld = mode
		case "slurmdbd":
			bc.Slurmdbd = mode
		default:
			return bc, fmt.Errorf("unknown source %q (want slurmctld or slurmdbd)", source)
		}
	}
	return bc, nil
}

// checkFaultBackend refuses a fault that could never fire. The fault runner
// wraps the CLI command runner, so a -fault-cmd whose daemon -backend
// serves over REST, or "*" while either daemon is on REST, would be armed
// and ignored.
func checkFaultBackend(faultCmd string, bc core.BackendConfig) error {
	if faultCmd == "" {
		return nil
	}
	for _, d := range []struct{ daemon, mode string }{
		{"slurmctld", bc.Slurmctld},
		{"slurmdbd", bc.Slurmdbd},
	} {
		if d.mode == core.BackendREST && (faultCmd == "*" || slurmcli.DaemonFor(faultCmd) == d.daemon) {
			return fmt.Errorf("-fault-cmd %q cannot reach %s: -backend serves it over REST, and faults reach CLI-served sources only", faultCmd, d.daemon)
		}
	}
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "dashboard listen address")
		opsAddr   = flag.String("ops-addr", "", "ops-only listen address for pprof (e.g. 127.0.0.1:6060; empty disables)")
		accessLog = flag.Bool("access-log", false, "log one line per API request (includes the trace ID)")
		small     = flag.Bool("small", false, "use the small workload (fast startup)")
		seed      = flag.Int64("seed", 42, "workload generator seed")
		warp      = flag.Duration("warp", time.Minute, "simulated time advanced per wall-clock second")

		backendMode = flag.String("backend", "cli",
			`Slurm data path: "cli", "rest", or per source like "slurmctld=rest,slurmdbd=cli"`)

		noPush        = flag.Bool("no-push", false, "disable the live-update push subsystem (/api/events serves only the legacy delta poll)")
		pushInterval  = flag.Duration("push-interval", time.Second, "wall-clock cadence of the background tick (cache purge, push refresh, SLO evaluation)")
		pushHeartbeat = flag.Duration("push-heartbeat", 15*time.Second, "SSE keep-alive comment interval (0 disables heartbeats)")

		replicas = flag.Int("replicas", 1, "dashboard replicas behind the simulated round-robin load balancer (>1 enables the fleet tier)")

		sloConfig = flag.String("slo-config", "", "JSON file of SLO objectives (empty = built-in defaults: 99.9% availability, 99% latency under 250ms, 28d budgets)")

		traceSample   = flag.Float64("trace-sample", 1, "head-sampling probability for span tracing (0 disables tracing)")
		traceSlowMS   = flag.Int("trace-slow-ms", 500, "slow-request threshold in milliseconds: slower traces are always retained and logged (0 disables the slow class)")
		traceStoreMax = flag.Int("trace-store-max", 256, "max traces the tail-sampled in-memory store retains")

		faultCmd        = flag.String("fault-cmd", "", `inject faults into this Slurm command ("*" = all; empty disables injection)`)
		faultRate       = flag.Float64("fault-rate", 0, "probability (0..1) a matching call fails")
		faultOutage     = flag.Bool("fault-outage", false, "fail every matching call (full outage)")
		faultLatency    = flag.Duration("fault-latency", 0, "added latency per matching call")
		faultJitter     = flag.Duration("fault-jitter", 0, "extra random latency, uniform in [0, jitter]")
		faultBurstLen   = flag.Int("fault-burst-len", 0, "with -fault-burst-every: first N of every M matching calls fail")
		faultBurstEvery = flag.Int("fault-burst-every", 0, "burst cycle length M")
		faultAfter      = flag.Duration("fault-after", 0, "arm fault injection this long after startup (0 = immediately)")
		faultSeed       = flag.Int64("fault-seed", 1, "fault-injection RNG seed")
	)
	flag.Parse()

	backendCfg, err := parseBackend(*backendMode)
	if err != nil {
		log.Fatalf("-backend: %v", err)
	}
	if err := checkFaultBackend(*faultCmd, backendCfg); err != nil {
		log.Fatal(err)
	}

	spec := workload.DefaultSpec()
	if *small {
		spec = workload.SmallSpec()
	}
	spec.Seed = *seed

	log.Printf("building workload (seed %d)...", spec.Seed)
	start := time.Now()
	env, err := workload.Build(spec)
	if err != nil {
		log.Fatalf("workload: %v", err)
	}
	log.Printf("workload ready in %v: %d accounting records, %d live jobs",
		time.Since(start).Round(time.Millisecond),
		env.Cluster.DBD.JobCount(), env.Cluster.Ctl.ActiveJobCount())

	// A staff account for the admin-only observability surface
	// (/api/admin/health, /api/admin/overview, /metrics).
	env.Users.AddUser(auth.User{Name: "staff", FullName: "Center Staff", Admin: true})

	// News feed on its own listener, as a separate service (Figure 1).
	newsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("news listener: %v", err)
	}
	newsURL := fmt.Sprintf("http://%s/", newsLn.Addr())
	go func() {
		if err := http.Serve(newsLn, env.Feed); err != nil {
			log.Printf("news server: %v", err)
		}
	}()
	log.Printf("news API at %s", newsURL)

	// Fault injection for live failure drills: wrap the runner before the
	// server is built so every route goes through it.
	if *faultCmd != "" {
		cmd := *faultCmd
		if cmd == "*" {
			cmd = "" // FaultRule: empty command matches everything
		}
		rule := slurmcli.FaultRule{
			Command:       cmd,
			Latency:       *faultLatency,
			LatencyJitter: *faultJitter,
			ErrorRate:     *faultRate,
			Outage:        *faultOutage,
			BurstLen:      *faultBurstLen,
			BurstEvery:    *faultBurstEvery,
		}
		fr := slurmcli.NewFaultRunner(env.Runner, *faultSeed, nil)
		env.Runner = fr
		arm := func() {
			fr.SetRules(rule)
			log.Printf("fault injection armed: cmd=%q rate=%g outage=%v latency=%v burst=%d/%d",
				*faultCmd, *faultRate, *faultOutage, *faultLatency, *faultBurstLen, *faultBurstEvery)
		}
		if *faultAfter > 0 {
			log.Printf("fault injection arming in %v", *faultAfter)
			time.AfterFunc(*faultAfter, arm)
		} else {
			arm()
		}
	}

	hb := *pushHeartbeat
	if hb <= 0 {
		hb = -1 // withDefaults: negative disables, zero means default
	}
	// TraceConfig semantics are trace.New's: zero means default, negative
	// disables — so a 0 flag value maps to the explicit "off" sentinel.
	traceCfg := core.TraceConfig{
		Sample:   *traceSample,
		Slow:     time.Duration(*traceSlowMS) * time.Millisecond,
		StoreMax: *traceStoreMax,
	}
	if *traceSample <= 0 {
		traceCfg.Sample = -1
	}
	if *traceSlowMS <= 0 {
		traceCfg.Slow = -1
	}
	cfg := core.Config{
		Push:    core.PushConfig{Disabled: *noPush, Heartbeat: hb},
		Trace:   traceCfg,
		Backend: backendCfg,
	}
	if *sloConfig != "" {
		data, err := os.ReadFile(*sloConfig)
		if err != nil {
			log.Fatalf("-slo-config: %v", err)
		}
		objectives, err := slo.ParseConfig(data)
		if err != nil {
			log.Fatalf("-slo-config %s: %v", *sloConfig, err)
		}
		cfg.SLO.Objectives = objectives
		log.Printf("SLO objectives loaded from %s (%d objectives)", *sloConfig, len(objectives))
	}

	// handler is what the main listener serves: a single server, or the
	// fleet's load balancer in front of *replicas of them. shutdown closes
	// whichever was built (push subsystem first, so SSE streams get their
	// final "shutdown" event and end before http.Server.Shutdown waits).
	var handler http.Handler
	var shutdown func()
	var fl *fleet.Fleet
	if *replicas > 1 {
		fl, err = fleet.New(fleet.Options{
			Replicas: *replicas,
			Clock:    env.Clock,
			Runner:   env.Runner,
			Build: func(id string, r slurmcli.Runner) (*core.Server, error) {
				return env.NewServerRunner(newsURL, cfg, r)
			},
		})
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		if *accessLog {
			for _, id := range fl.Replicas() {
				rid := id
				fl.Server(rid).SetAccessLog(func(line string) { log.Printf("[%s] %s", rid, line) })
			}
		}
		fl.Run(*pushInterval)
		handler, shutdown = fl, fl.Close
		log.Printf("fleet tier on: %d replicas, round-robin balancing, one shared cache tier", *replicas)
	} else {
		server, err := env.NewServerRunner(newsURL, cfg, env.Runner)
		if err != nil {
			log.Fatalf("server: %v", err)
		}
		if *accessLog {
			server.SetAccessLog(func(line string) { log.Print(line) })
		}
		// The background tick runs with or without push: it also purges the
		// caches, which a poll-only server fills just the same.
		server.StartPush(*pushInterval)
		if !*noPush {
			log.Printf("push subsystem on: SSE at /api/events, refresh scheduler every %v", *pushInterval)
		}
		handler, shutdown = server, server.Close
	}
	if backendCfg.Slurmctld == core.BackendREST || backendCfg.Slurmdbd == core.BackendREST {
		log.Printf("REST backend on (slurmctld=%s slurmdbd=%s): in-process slurmrestd with scoped tokens",
			backendCfg.Slurmctld, backendCfg.Slurmdbd)
	}

	// Profiling on a dedicated ops mux, never on the user-facing listener:
	// the default mux would expose /debug/pprof to anyone the proxy lets in.
	// The listener is a real http.Server so the drain path can Shutdown it
	// instead of leaving it to die with the process mid-scrape.
	var opsSrv *http.Server
	if *opsAddr != "" {
		opsMux := http.NewServeMux()
		opsMux.HandleFunc("/debug/pprof/", pprof.Index)
		opsMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		opsMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		opsMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		opsMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if fl != nil {
			opsMux.HandleFunc("/metrics/fleet", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4")
				_ = fl.Metrics().WritePrometheus(w)
			})
		}
		opsSrv = &http.Server{
			Addr:              *opsAddr,
			Handler:           opsMux,
			ReadHeaderTimeout: 5 * time.Second,
			// No blanket ReadTimeout: pprof profile/trace captures hold the
			// response open for their whole -seconds window.
			IdleTimeout: 2 * time.Minute,
		}
		go func() {
			log.Printf("ops (pprof) listening on %s", *opsAddr)
			if err := opsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("ops server: %v", err)
			}
		}()
	}

	// Drive the cluster forward in (warped) real time with fresh traffic.
	go func() {
		rng := rand.New(rand.NewSource(spec.Seed + 1))
		perSec := float64(spec.JobsPerDay) / (24 * 3600) * (*warp).Seconds()
		for range time.Tick(time.Second) {
			env.Clock.Advance(*warp)
			n := int(perSec)
			if rng.Float64() < perSec-float64(n) {
				n++
			}
			env.SubmitRandom(rng, n)
		}
	}()

	log.Printf("dashboard listening on %s (users %s..%s; send X-Remote-User)",
		*addr, env.UserNames[0], env.UserNames[len(env.UserNames)-1])
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slow-loris protection on the header phase and idle keep-alive
		// reaping only: no ReadTimeout or WriteTimeout, because /api/events
		// holds SSE responses open indefinitely and either blanket deadline
		// would sever healthy streams.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down...")
		// Close the push subsystem first: streams get a final "shutdown"
		// event and end, so Shutdown is not left waiting on open SSE
		// connections until its deadline.
		shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if opsSrv != nil {
			_ = opsSrv.Shutdown(ctx)
		}
		_ = srv.Shutdown(ctx)
	}()
	// ListenAndServe returns the moment Shutdown begins; wait for the drain
	// to finish, or the process would exit with SSE handlers mid-final-write.
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("dashboard: %v", err)
	}
	<-drained
}
