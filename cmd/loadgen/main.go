// Command loadgen load-tests a running dashboard the way the paper's scale
// concern frames it: N users with their own browser-side caches reloading
// the homepage on an interval. It reports per-reload latency percentiles,
// per-widget p50/p95/p99 network latency, how many widget paints were
// served instantly from the client cache, and each widget's error and
// degraded-response rates — the live counterpart of the §2.4 cache-load
// experiment. The -max-*-rate gates turn a failure drill into a scriptable
// check: loadgen exits 1 when a rate exceeds its budget.
//
// Usage:
//
//	loadgen [-url http://localhost:8080] [-users 50] [-duration 30s]
//	        [-interval 5s] [-userprefix user] [-usercount 40]
//	        [-max-error-rate 0.01] [-max-degraded-rate 0.2]
//
// The in-process benchmark is perfbench (bash perfbench/run.sh); the
// scale, hot-path, fleet, REST, rollup and chaos gates are go tests.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"ooddash/internal/browser"
	"ooddash/internal/clock"
)

// widgetAgg tracks one widget's health and latency across the run.
type widgetAgg struct {
	requests int
	errors   int
	degraded int
	lats     []time.Duration // network-fetch latencies only
}

// collector aggregates page loads across all simulated browsers.
type collector struct {
	mu        sync.Mutex
	pageLats  []time.Duration
	instant   int
	fetches   int
	degraded  int
	failed    int
	perWidget map[string]*widgetAgg
}

func (c *collector) record(load browser.PageLoad) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pageLats = append(c.pageLats, load.NetworkTime)
	c.instant += load.InstantPaints
	c.fetches += load.NetworkFetches
	c.degraded += load.DegradedPaints
	c.failed += load.Failed
	for _, wr := range load.Widgets {
		agg := c.perWidget[wr.Name]
		if agg == nil {
			agg = &widgetAgg{}
			c.perWidget[wr.Name] = agg
		}
		agg.requests++
		if wr.NetworkTime > 0 {
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

// percentile sorts lats in place and reads its p-quantile, rounded for
// printing.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[int(p*float64(len(lats)-1))].Round(time.Microsecond)
}

// report prints the run summary and the per-widget table, and returns the
// overall widget error and degraded rates for the exit gates.
func (c *collector) report() (errRate, degRate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	painted := c.instant + c.fetches
	fmt.Printf("\npage loads:              %d\n", len(c.pageLats))
	fmt.Printf("widget paints:           %d\n", painted)
	fmt.Printf("  instant (client cache): %d (%.1f%%)\n", c.instant, 100*float64(c.instant)/float64(painted))
	fmt.Printf("  network fetches:        %d\n", c.fetches)
	fmt.Printf("  degraded (stale) :      %d (%.1f%%)\n", c.degraded, 100*float64(c.degraded)/float64(painted))
	fmt.Printf("  failed widgets:         %d\n", c.failed)
	fmt.Printf("network time per reload: p50=%v p90=%v p99=%v max=%v\n",
		percentile(c.pageLats, 0.50), percentile(c.pageLats, 0.90),
		percentile(c.pageLats, 0.99), percentile(c.pageLats, 1))

	names := make([]string, 0, len(c.perWidget))
	for name := range c.perWidget {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\n%-16s %9s %8s %7s %9s %7s %10s %10s %10s\n",
		"widget", "requests", "errors", "err%", "degraded", "degr%", "p50", "p95", "p99")
	var totalReq, totalErr, totalDeg int
	for _, name := range names {
		agg := c.perWidget[name]
		totalReq += agg.requests
		totalErr += agg.errors
		totalDeg += agg.degraded
		fmt.Printf("%-16s %9d %8d %6.1f%% %9d %6.1f%% %10v %10v %10v\n",
			name, agg.requests,
			agg.errors, 100*float64(agg.errors)/float64(agg.requests),
			agg.degraded, 100*float64(agg.degraded)/float64(agg.requests),
			percentile(agg.lats, 0.50), percentile(agg.lats, 0.95), percentile(agg.lats, 0.99))
	}
	return float64(totalErr) / float64(totalReq), float64(totalDeg) / float64(totalReq)
}

func main() {
	var (
		url        = flag.String("url", "http://localhost:8080", "dashboard base URL")
		users      = flag.Int("users", 50, "concurrent simulated browsers (>= 1)")
		duration   = flag.Duration("duration", 30*time.Second, "test duration (> 0)")
		interval   = flag.Duration("interval", 5*time.Second, "per-user reload interval")
		prefix     = flag.String("userprefix", "user", "username prefix (userNNN)")
		userCount  = flag.Int("usercount", 40, "distinct usernames to rotate through (>= 1)")
		maxErrRate = flag.Float64("max-error-rate", -1, "exit 1 if the overall widget error rate exceeds this (0..1; negative disables)")
		maxDegRate = flag.Float64("max-degraded-rate", -1, "exit 1 if the overall degraded-response rate exceeds this (0..1; negative disables)")
	)
	flag.Parse()
	switch {
	case *users < 1:
		badFlag("-users must be >= 1, got %d", *users)
	case *userCount < 1:
		badFlag("-usercount must be >= 1, got %d", *userCount)
	case *duration <= 0:
		badFlag("-duration must be > 0, got %v", *duration)
	}

	col := runLive(*url, *users, *duration, *interval, *prefix, *userCount)
	errRate, degRate := col.report()
	if *maxErrRate >= 0 && errRate > *maxErrRate {
		log.Printf("FAIL: error rate %.3f exceeds -max-error-rate %.3f", errRate, *maxErrRate)
		os.Exit(1)
	}
	if *maxDegRate >= 0 && degRate > *maxDegRate {
		log.Printf("FAIL: degraded rate %.3f exceeds -max-degraded-rate %.3f", degRate, *maxDegRate)
		os.Exit(1)
	}
}

// badFlag reports an invalid flag value and exits with the flag package's
// usage status.
func badFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// runLive drives a running dashboard over the wall clock. Every browser
// loads the homepage at least once, then reloads every interval until the
// deadline.
func runLive(url string, users int, duration, interval time.Duration, prefix string, userCount int) *collector {
	client := &http.Client{Timeout: 10 * time.Second}
	col := &collector{perWidget: make(map[string]*widgetAgg)}
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
			for {
				col.record(b.LoadHomepage())
				if !time.Now().Add(interval).Before(deadline) {
					return
				}
				time.Sleep(interval)
			}
		}(i)
	}
	wg.Wait()
	return col
}
