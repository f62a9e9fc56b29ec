// Command loadgen load-tests a dashboard the way the paper's scale concern
// frames it: N users with their own browser-side caches reloading the
// homepage on an interval. It reports per-reload latency percentiles,
// per-widget p50/p95/p99 network latency, how many widget paints were
// served instantly from the client cache, and each widget's error and
// degraded-response rates — the live counterpart of the §2.4 cache-load
// experiment.
//
// Usage:
//
//	loadgen [-url http://localhost:8080] [-users 50] [-duration 30s]
//	        [-interval 5s] [-userprefix user] [-usercount 40]
//	        [-max-error-rate 0.01] [-max-degraded-rate 0.2]
//	        [-bench-out BENCH_latency.json]
//	loadgen -smoke [-users 25] [-rounds 8] [-interval 5s] [-bench-out ...]
//	loadgen -sse [-users 50] [-rounds 6] [-interval 75s] [-bench-out BENCH_push.json]
//	        [-max-sse-rpc-ratio 2]
//	loadgen -fleet [-users 50] [-fleet-replicas 4] [-rounds 6] [-interval 75s]
//	        [-lb-policy round_robin] [-max-fleet-rpc-ratio 1.3]
//	        [-bench-out BENCH_fleet.json]
//	loadgen -chaos all [-arrival-rate 400] [-seed 7] [-chaos-wall 250ms]
//	        [-fill-cap 24] [-bench-out BENCH_chaos.json]
//	loadgen -backend-ab [-ab-requests 300] [-max-rest-p95-ratio 1.5]
//	        [-bench-out BENCH_rest.json]
//	loadgen -rollup [-rollup-requests 60] [-max-rollup-p95-ratio 1.5]
//	        [-bench-out BENCH_rollup.json]
//
// With -backend-ab, loadgen times the same Slurm query mix through both
// dashboard backends — the CLI parse-text path and the slurmrestd-style
// decode-JSON path — after verifying they return identical rows, and probes
// the REST token-scope matrix (redaction, 403s, 401) with real provisioned
// tokens. Scope violations always fail the run.
//
// With -chaos, loadgen replays the internal/chaos scenario catalog
// (maintenance drain, node-failure storm, power cycle, job-array storm,
// accounting backfill, login rush) against an in-process dashboard under an
// open-loop Poisson request storm: arrivals are pre-scheduled at
// -arrival-rate and latency is measured from each request's INTENDED
// arrival instant, so coordinated omission cannot hide a stall. Each
// scenario gates on its own p99 / degraded-rate / rejected-rate SLO and any
// page-level 5xx fails the run.
//
// With -smoke, loadgen needs no running dashboard: it builds the small
// simulated cluster in-process, serves the dashboard on an ephemeral port,
// and drives the reload loop on the simulated clock — each round advances
// simulated time by -interval instead of sleeping, so cache TTLs expire
// realistically while the whole run finishes in wall-clock seconds. That is
// the `make bench` scenario that seeds the repo's latency trajectory.
//
// -bench-out writes a BENCH_*.json snapshot (per-widget percentiles and
// health rates) so successive runs are comparable; the -max-*-rate gates
// turn a failure drill into a scriptable check exactly as before.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"ooddash/internal/browser"
	"ooddash/internal/clock"
	"ooddash/internal/workload"
)

// widgetAgg tracks one widget's health and latency across the run.
type widgetAgg struct {
	requests int
	fetches  int
	errors   int
	degraded int
	lats     []time.Duration // network-fetch latencies only
}

// sample is one homepage reload.
type sample struct {
	netTime  time.Duration
	instant  int
	fetches  int
	degraded int
	failed   int
}

// collector aggregates page loads across all simulated browsers.
type collector struct {
	mu        sync.Mutex
	samples   []sample
	perWidget map[string]*widgetAgg
}

func newCollector() *collector {
	return &collector{perWidget: make(map[string]*widgetAgg)}
}

func (c *collector) record(load browser.PageLoad) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, sample{
		netTime:  load.NetworkTime,
		instant:  load.InstantPaints,
		fetches:  load.NetworkFetches,
		degraded: load.DegradedPaints,
		failed:   load.Failed,
	})
	for _, wr := range load.Widgets {
		agg := c.perWidget[wr.Name]
		if agg == nil {
			agg = &widgetAgg{}
			c.perWidget[wr.Name] = agg
		}
		agg.requests++
		if wr.NetworkTime > 0 {
			agg.fetches++
			agg.lats = append(agg.lats, wr.NetworkTime)
		}
		if wr.Err != nil {
			agg.errors++
		}
		if wr.Degraded {
			agg.degraded++
		}
	}
}

// percentile reads the p-quantile from a sorted latency slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// benchWidget is one widget's row in the BENCH_*.json snapshot.
type benchWidget struct {
	Requests       int     `json:"requests"`
	NetworkFetches int     `json:"network_fetches"`
	Errors         int     `json:"errors"`
	Degraded       int     `json:"degraded"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
}

// benchReport is the snapshot the perf trajectory tracks run over run.
type benchReport struct {
	Kind        string                 `json:"kind"` // "loadgen_latency"
	Scenario    string                 `json:"scenario"`
	GeneratedAt time.Time              `json:"generated_at"`
	Users       int                    `json:"users"`
	PageLoads   int                    `json:"page_loads"`
	PageP50Ms   float64                `json:"page_network_p50_ms"`
	PageP90Ms   float64                `json:"page_network_p90_ms"`
	PageP99Ms   float64                `json:"page_network_p99_ms"`
	ErrorRate   float64                `json:"error_rate"`
	DegRate     float64                `json:"degraded_rate"`
	Widgets     map[string]benchWidget `json:"widgets"`
}

// report prints the run summary, optionally writes the bench snapshot, and
// returns the overall error and degraded rates for the exit gates.
func (c *collector) report(scenario string, users int, benchOut string) (errRate, degRate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) == 0 {
		log.Fatal("no samples collected — is the dashboard running?")
	}
	var (
		lats           []time.Duration
		totalInstant   int
		totalFetches   int
		totalDegraded  int
		totalFailed    int
		widgetsPainted int
	)
	for _, s := range c.samples {
		lats = append(lats, s.netTime)
		totalInstant += s.instant
		totalFetches += s.fetches
		totalDegraded += s.degraded
		totalFailed += s.failed
		widgetsPainted += s.instant + s.fetches
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	fmt.Printf("\npage loads:              %d\n", len(c.samples))
	fmt.Printf("widget paints:           %d\n", widgetsPainted)
	fmt.Printf("  instant (client cache): %d (%.1f%%)\n",
		totalInstant, 100*float64(totalInstant)/float64(widgetsPainted))
	fmt.Printf("  network fetches:        %d\n", totalFetches)
	fmt.Printf("  degraded (stale) :      %d (%.1f%%)\n",
		totalDegraded, 100*float64(totalDegraded)/float64(widgetsPainted))
	fmt.Printf("  failed widgets:         %d\n", totalFailed)
	fmt.Printf("network time per reload: p50=%v p90=%v p99=%v max=%v\n",
		percentile(lats, 0.50).Round(time.Microsecond), percentile(lats, 0.90).Round(time.Microsecond),
		percentile(lats, 0.99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))

	// Per-widget health and latency percentiles: error rate, degraded rate,
	// and the p50/p95/p99 a fault drill or perf regression moves first.
	names := make([]string, 0, len(c.perWidget))
	for name := range c.perWidget {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\n%-16s %9s %8s %7s %9s %7s %10s %10s %10s\n",
		"widget", "requests", "errors", "err%", "degraded", "degr%", "p50", "p95", "p99")
	var totalReq, totalErr, totalDeg int
	widgets := make(map[string]benchWidget, len(names))
	for _, name := range names {
		agg := c.perWidget[name]
		totalReq += agg.requests
		totalErr += agg.errors
		totalDeg += agg.degraded
		sort.Slice(agg.lats, func(i, j int) bool { return agg.lats[i] < agg.lats[j] })
		p50 := percentile(agg.lats, 0.50)
		p95 := percentile(agg.lats, 0.95)
		p99 := percentile(agg.lats, 0.99)
		fmt.Printf("%-16s %9d %8d %6.1f%% %9d %6.1f%% %10v %10v %10v\n",
			name, agg.requests,
			agg.errors, 100*float64(agg.errors)/float64(agg.requests),
			agg.degraded, 100*float64(agg.degraded)/float64(agg.requests),
			p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond))
		bw := benchWidget{
			Requests:       agg.requests,
			NetworkFetches: agg.fetches,
			Errors:         agg.errors,
			Degraded:       agg.degraded,
			P50Ms:          ms(p50),
			P95Ms:          ms(p95),
			P99Ms:          ms(p99),
		}
		if n := len(agg.lats); n > 0 {
			bw.MaxMs = ms(agg.lats[n-1])
		}
		widgets[name] = bw
	}
	errRate = float64(totalErr) / float64(totalReq)
	degRate = float64(totalDeg) / float64(totalReq)

	if benchOut != "" {
		rep := benchReport{
			Kind:        "loadgen_latency",
			Scenario:    scenario,
			GeneratedAt: time.Now().UTC(),
			Users:       users,
			PageLoads:   len(c.samples),
			PageP50Ms:   ms(percentile(lats, 0.50)),
			PageP90Ms:   ms(percentile(lats, 0.90)),
			PageP99Ms:   ms(percentile(lats, 0.99)),
			ErrorRate:   errRate,
			DegRate:     degRate,
			Widgets:     widgets,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("encoding bench snapshot: %v", err)
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", benchOut, err)
		}
		log.Printf("bench snapshot written to %s", benchOut)
	}
	return errRate, degRate
}

func main() {
	var (
		url       = flag.String("url", "http://localhost:8080", "dashboard base URL")
		users     = flag.Int("users", 50, "concurrent simulated browsers")
		duration  = flag.Duration("duration", 30*time.Second, "test duration")
		interval  = flag.Duration("interval", 5*time.Second, "per-user reload interval")
		prefix    = flag.String("userprefix", "user", "username prefix (userNNN)")
		userCount = flag.Int("usercount", 40, "distinct usernames to rotate through")

		smoke  = flag.Bool("smoke", false, "self-contained run: in-process dashboard over the small simulated cluster, reload rounds on the simulated clock")
		rounds = flag.Int("rounds", 8, "reload rounds in -smoke mode (each advances simulated time by -interval)")

		sse         = flag.Bool("sse", false, "push benchmark: compare polling vs SSE upstream RPC cost in-process (implies -smoke-style stack; see -rounds/-interval/-users)")
		maxRPCRatio = flag.Float64("max-sse-rpc-ratio", -1, "exit 1 if the SSE fleet's upstream RPCs exceed this multiple of the single-client polling baseline (negative disables)")

		fleetMode     = flag.Bool("fleet", false, "fleet benchmark: scale replicas×clients 10x with coherent caches and partitioned refresh ownership, plus a no-coherence ablation and a replica-kill drill")
		fleetReplicas = flag.Int("fleet-replicas", 4, "replica count for the scaled -fleet phases")
		lbPolicyFlag  = flag.String("lb-policy", "round_robin", "-fleet load-balancing policy: round_robin, least_conn, or sticky")
		maxFleetRatio = flag.Float64("max-fleet-rpc-ratio", -1, "exit 1 if the scaled fleet's upstream RPCs exceed this multiple of the 1-replica baseline (negative disables)")

		hotpath          = flag.Bool("hotpath", false, "hot-path benchmark: re-encode baseline vs encode-once vs 304 revalidation vs sampled-out tracing against an in-process stack (see -hotpath-requests)")
		hotpathRequests  = flag.Int("hotpath-requests", 28000, "requests per phase in -hotpath mode (rounded down to the request-mix size)")
		minHotAllocRatio = flag.Float64("min-hotpath-alloc-ratio", -1, "exit 1 if encode-once allocs/op are not at least this many times below the re-encode baseline (negative disables)")
		maxTraceAllocs   = flag.Float64("max-trace-allocs", 3, "exit 1 if sampled-out tracing adds more than this many allocs/op over the untraced encode-once hit path (negative disables)")

		backendAB    = flag.Bool("backend-ab", false, "A/B benchmark: CLI parse-text vs REST decode-JSON fill path over one in-process cluster, plus token-scope probes (see -ab-requests)")
		abRequests   = flag.Int("ab-requests", 300, "rounds per op per backend in -backend-ab mode")
		maxRESTRatio = flag.Float64("max-rest-p95-ratio", -1, "exit 1 if the revalidating REST side's pooled p95 exceeds this multiple of the CLI side's (negative disables; scope violations always fail)")
		maxColdRatio = flag.Float64("max-rest-cold-p95-ratio", -1, "exit 1 if the cold (non-revalidating) REST side's pooled p95 exceeds this multiple of the CLI side's (negative disables)")

		rollupMode     = flag.Bool("rollup", false, "rollup benchmark: O(buckets) pre-aggregated reads vs the raw accounting-scan ablation at 1x/100x/1000x synthesized history, with a byte-equality golden check at each scale")
		rollupRequests = flag.Int("rollup-requests", 60, "timed rollup-path requests per scale in -rollup mode")
		maxRollupP95   = flag.Float64("max-rollup-p95-ratio", -1, "exit 1 if rollup-path p95 at 1000x history exceeds this multiple of the 1x p95 (negative disables; golden mismatches always fail)")

		sloMode      = flag.Bool("slo", false, "SLO benchmark: hit-path allocation cost of SLI recording (off vs on) plus the chaos-catalog alert truth table (see -slo-requests, -max-slo-allocs)")
		sloRequests  = flag.Int("slo-requests", 21000, "requests per overhead phase in -slo mode (rounded down to the request-mix size)")
		maxSLOAllocs = flag.Float64("max-slo-allocs", 1, "exit 1 if SLI recording adds more than this many allocs/op over the recording-off hit path (negative disables)")

		chaosName   = flag.String("chaos", "", "chaos mode: run this internal/chaos scenario (or \"all\") under open-loop load with per-scenario SLO gates")
		arrivalRate = flag.Float64("arrival-rate", 400, "chaos mode: open-loop Poisson arrival rate, requests/second (latency measured from intended arrival)")
		seed        = flag.Int64("seed", 7, "chaos mode: seed for the workload, fault injector, and arrival schedule (recorded in BENCH_chaos.json)")
		chaosWall   = flag.Duration("chaos-wall", 250*time.Millisecond, "chaos mode: wall time per scripted scenario step")
		fillCap     = flag.Int("fill-cap", 24, "chaos mode: per-source concurrent upstream fill cap (0 = server default, negative = unlimited)")

		benchOut   = flag.String("bench-out", "", "write a BENCH_*.json latency snapshot to this path")
		maxErrRate = flag.Float64("max-error-rate", -1, "exit 1 if the overall widget error rate exceeds this (0..1; negative disables)")
		maxDegRate = flag.Float64("max-degraded-rate", -1, "exit 1 if the overall degraded-response rate exceeds this (0..1; negative disables)")
	)
	flag.Parse()

	if *chaosName != "" {
		runChaosBench(*chaosName, *arrivalRate, *seed, *chaosWall, *fillCap, *benchOut)
		return
	}
	if *sse {
		runPushBench(*users, *rounds, *interval, *benchOut, *maxRPCRatio)
		return
	}
	if *fleetMode {
		runFleetBench(*users, *fleetReplicas, *rounds, *interval, *lbPolicyFlag, *benchOut, *maxFleetRatio)
		return
	}
	if *hotpath {
		runHotpathBench(*hotpathRequests, *benchOut, *minHotAllocRatio, *maxTraceAllocs)
		return
	}
	if *backendAB {
		runRESTBench(*abRequests, *benchOut, *maxRESTRatio, *maxColdRatio)
		return
	}
	if *rollupMode {
		runRollupBench(*rollupRequests, *benchOut, *maxRollupP95)
		return
	}
	if *sloMode {
		runSLOBench(*sloRequests, *seed, *benchOut, *maxSLOAllocs)
		return
	}

	var (
		col      *collector
		scenario string
	)
	if *smoke {
		scenario = "smoke"
		col = runSmoke(*users, *rounds, *interval)
	} else {
		scenario = "live"
		col = runLive(*url, *users, *duration, *interval, *prefix, *userCount)
	}

	errRate, degRate := col.report(scenario, *users, *benchOut)
	if *maxErrRate >= 0 && errRate > *maxErrRate {
		log.Printf("FAIL: error rate %.3f exceeds -max-error-rate %.3f", errRate, *maxErrRate)
		os.Exit(1)
	}
	if *maxDegRate >= 0 && degRate > *maxDegRate {
		log.Printf("FAIL: degraded rate %.3f exceeds -max-degraded-rate %.3f", degRate, *maxDegRate)
		os.Exit(1)
	}
}

// runLive drives a running dashboard over the wall clock.
func runLive(url string, users int, duration, interval time.Duration, prefix string, userCount int) *collector {
	client := &http.Client{Timeout: 10 * time.Second}
	col := newCollector()
	deadline := time.Now().Add(duration)
	log.Printf("load: %d browsers against %s for %v (reload every %v)",
		users, url, duration, interval)

	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("%s%03d", prefix, i%userCount+1)
			b := browser.New(name, url, client, clock.Real{})
			for time.Now().Before(deadline) {
				col.record(b.LoadHomepage())
				time.Sleep(interval)
			}
		}(i)
	}
	wg.Wait()
	return col
}

// runSmoke builds the whole stack in-process and drives reload rounds on
// the simulated clock: no wall-clock sleeping, but cache TTLs expire as
// they would over minutes of real traffic, because each round advances the
// shared simulated clock by interval.
func runSmoke(users, rounds int, interval time.Duration) *collector {
	spec := workload.SmallSpec()
	log.Printf("smoke: building small workload (seed %d)...", spec.Seed)
	env, err := workload.Build(spec)
	if err != nil {
		log.Fatalf("workload: %v", err)
	}

	newsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("news listener: %v", err)
	}
	defer newsLn.Close()
	go func() { _ = http.Serve(newsLn, env.Feed) }()

	server, err := env.NewServer(fmt.Sprintf("http://%s/", newsLn.Addr()))
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	dashLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("dashboard listener: %v", err)
	}
	defer dashLn.Close()
	go func() { _ = http.Serve(dashLn, server) }()
	baseURL := fmt.Sprintf("http://%s", dashLn.Addr())
	log.Printf("smoke: dashboard at %s, %d browsers, %d rounds (simulated %v apart)",
		baseURL, users, rounds, interval)

	client := &http.Client{Timeout: 10 * time.Second}
	col := newCollector()
	browsers := make([]*browser.Browser, users)
	for i := range browsers {
		// Browsers share the simulated clock, so their client caches age in
		// simulated time together with the server cache.
		name := env.UserNames[i%len(env.UserNames)]
		browsers[i] = browser.New(name, baseURL, client, env.Clock)
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for _, b := range browsers {
			wg.Add(1)
			go func(b *browser.Browser) {
				defer wg.Done()
				col.record(b.LoadHomepage())
			}(b)
		}
		wg.Wait()
		env.Clock.Advance(interval)
		env.Cluster.Ctl.Tick()
	}
	return col
}
