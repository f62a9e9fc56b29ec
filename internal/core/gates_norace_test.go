//go:build !race

// Serving-path gates that count allocations or read the wall clock:
// encode-once against the re-encode ablation, the allocation cost of
// sampled-out tracing and of SLI recording, and rollup latency as the
// accounting history grows 1000x. The file builds without -race because
// the race detector drops sync.Pool entries, so pooled buffers count as
// fresh allocations, and it slows instrumented code unevenly, so latency
// comparisons between two paths stop meaning anything.
package core_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
	"ooddash/internal/workload"
)

// hitWidgets is the hit-heavy request mix: every JSON homepage widget,
// shared and per-user, so both rendered-cache variants are exercised.
var hitWidgets = []string{
	"/api/announcements",
	"/api/system_status",
	"/api/cluster_status",
	"/api/recent_jobs",
	"/api/accounts",
	"/api/storage",
	"/api/myjobs",
}

// nullRecorder is a reusable ResponseWriter that discards the body, so the
// gates count the server's allocations, not the recorder's.
type nullRecorder struct {
	header http.Header
	status int
}

func (n *nullRecorder) Header() http.Header         { return n.header }
func (n *nullRecorder) WriteHeader(c int)           { n.status = c }
func (n *nullRecorder) Write(p []byte) (int, error) { return len(p), nil }

// serve runs one request through the server's full middleware chain and
// returns its status.
func (n *nullRecorder) serve(s *core.Server, req *http.Request) int {
	clear(n.header)
	n.status = http.StatusOK
	s.ServeHTTP(n, req)
	return n.status
}

// gateServer builds a dashboard over workload.SmallSpec.
func gateServer(t *testing.T, cfg core.Config) (*workload.Env, *core.Server) {
	t.Helper()
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	news := httptest.NewServer(env.Feed)
	t.Cleanup(news.Close)
	s, err := env.NewServerRunner(news.URL, cfg, env.Runner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return env, s
}

func userGet(t *testing.T, user, path string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(auth.UserHeader, user)
	return req
}

// hitMix is every hit widget for four users, built once and reused. The
// simulated clock never advances, so after one pass every request is a
// cache hit.
func hitMix(t *testing.T, env *workload.Env) []*http.Request {
	var mix []*http.Request
	for _, u := range env.UserNames[:4] {
		for _, path := range hitWidgets {
			mix = append(mix, userGet(t, u, path))
		}
	}
	return mix
}

// hitAllocs returns the exact allocations per request over rounds passes
// of the mix, after the one warm-up pass testing.AllocsPerRun makes.
func hitAllocs(t *testing.T, s *core.Server, mix []*http.Request, rounds int) float64 {
	t.Helper()
	rec := &nullRecorder{header: make(http.Header)}
	bad := 0
	perPass := testing.AllocsPerRun(rounds, func() {
		for _, req := range mix {
			if rec.serve(s, req) != http.StatusOK {
				bad++
			}
		}
	})
	if bad > 0 {
		t.Fatalf("%d hit-path requests did not return 200", bad)
	}
	return perPass / float64(len(mix))
}

func p95(lats []time.Duration) time.Duration {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[int(0.95*float64(len(lats)-1))]
}

// hitRounds passes of the 28-request mix make 28,000 requests per side.
const hitRounds = 1000

// maxHitAllocs bounds the allocations per rendered-cache hit over the mix:
// 12.7 on Go 1.24, amd64.
const maxHitAllocs = 13

// TestHotpathEncodeOnceAllocRatio: a rendered-cache hit costs at most
// maxHitAllocs allocations per request, and fewer than rebuilding the view
// model with the rendered layer off. The bound is on the hit path itself:
// the re-encode side is no fixed baseline, since My Jobs splices its table
// from stored row bytes on either side.
func TestHotpathEncodeOnceAllocRatio(t *testing.T) {
	env, s := gateServer(t, core.Config{})
	mix := hitMix(t, env)
	s.SetTraceSample(-1)
	s.SetRenderCacheDisabled(true)
	reencode := hitAllocs(t, s, mix, hitRounds)
	s.SetRenderCacheDisabled(false)
	once := hitAllocs(t, s, mix, hitRounds)
	t.Logf("allocs/op: re-encode %.1f, encode-once %.1f (%.1fx)", reencode, once, reencode/once)
	if once > maxHitAllocs {
		t.Fatalf("encode-once %.1f allocs/op exceeds %d", once, maxHitAllocs)
	}
	if once >= reencode {
		t.Fatalf("encode-once %.1f allocs/op is not below re-encode %.1f", once, reencode)
	}
}

// TestHotpathEncodeOnceP95: the encode-once hit p95 is no higher than the
// re-encode p95. The two sides alternate request by request, so host
// noise lands on both.
func TestHotpathEncodeOnceP95(t *testing.T) {
	env, s := gateServer(t, core.Config{})
	mix := hitMix(t, env)
	s.SetTraceSample(-1)
	rec := &nullRecorder{header: make(http.Header)}
	bad := 0
	timed := func(renderOff bool, req *http.Request, lats *[]time.Duration) {
		s.SetRenderCacheDisabled(renderOff)
		t0 := time.Now()
		if rec.serve(s, req) != http.StatusOK {
			bad++
		}
		*lats = append(*lats, time.Since(t0))
	}
	for _, req := range mix { // warm the data and rendered caches
		rec.serve(s, req)
	}
	var reencode, once []time.Duration
	for round := 0; round < hitRounds; round++ {
		for _, req := range mix {
			if round%2 == 0 {
				timed(true, req, &reencode)
				timed(false, req, &once)
			} else {
				timed(false, req, &once)
				timed(true, req, &reencode)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d hit-path requests did not return 200", bad)
	}
	re, on := p95(reencode), p95(once)
	t.Logf("p95: re-encode %v, encode-once %v over %d requests each", re, on, len(once))
	if on > re {
		t.Fatalf("encode-once p95 %v exceeds re-encode p95 %v", on, re)
	}
}

// TestHotpathSampledOutTracingAllocs: tracing with sampling probability 0
// (the per-request head-sampling hash runs, no span is built) adds at most
// 3 allocations per encode-once hit.
func TestHotpathSampledOutTracingAllocs(t *testing.T) {
	env, s := gateServer(t, core.Config{})
	mix := hitMix(t, env)
	s.SetTraceSample(-1)
	untraced := hitAllocs(t, s, mix, hitRounds)
	s.SetTraceSample(0)
	traced := hitAllocs(t, s, mix, hitRounds)
	t.Logf("allocs/op: untraced %.2f, sampled-out %.2f (%+.2f)", untraced, traced, traced-untraced)
	if traced-untraced > 3 {
		t.Fatalf("sampled-out tracing adds %.2f allocs/op, want <= 3", traced-untraced)
	}
}

// TestSLORecordingAllocs: recording SLIs in the middleware adds at most 1
// allocation per hit over the same 21,000-request stream with recording
// off.
func TestSLORecordingAllocs(t *testing.T) {
	env, s := gateServer(t, core.Config{})
	mix := hitMix(t, env)
	s.SetTraceSample(-1)
	s.SetSLORecordingDisabled(true)
	off := hitAllocs(t, s, mix, 750)
	s.SetSLORecordingDisabled(false)
	on := hitAllocs(t, s, mix, 750)
	t.Logf("allocs/op: recording off %.2f, on %.2f (%+.2f)", off, on, on-off)
	if on-off > 1 {
		t.Fatalf("SLI recording adds %.2f allocs/op, want <= 1", on-off)
	}
}

// rollupWindow formats a custom range ending days whole days before now's
// day boundary and spanning span days.
func rollupWindow(now time.Time, days, span int64) string {
	to := now.Unix() - now.Unix()%86400 - days*86400
	stamp := func(sec int64) string { return time.Unix(sec, 0).UTC().Format(time.RFC3339) }
	return fmt.Sprintf("range=custom&from=%s&to=%s", stamp(to-span*86400), stamp(to))
}

// TestRollupP95FlatAcrossHistoryScales grows accounting from 300 to
// 300,000 synthesized jobs. At each scale 40 cold 180-day reads cycle the
// four rollup-backed shapes, each window shifted a day further back so no
// cache key repeats, and five 600-day reads must be byte-identical between
// the rollup server and a second server whose runner folds raw sacct rows
// (core.NewRollupFoldRunner). The rollup p95 at 1000x stays
// within 1.5x of the 1x p95, floored at 5 ms: at 1x the windows are nearly
// empty and the p95 is fixed per-request overhead, which would turn the
// ratio into noise.
func TestRollupP95FlatAcrossHistoryScales(t *testing.T) {
	cfg := core.Config{}
	// The fold scans hundreds of thousands of rows per window at 1000x,
	// past the production 2 s per-attempt timeout.
	cfg.Resilience.Policy.Timeout = 60 * time.Second
	env, s := gateServer(t, cfg)
	fold, err := env.NewServerRunner("", cfg, core.NewRollupFoldRunner(env.Runner))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fold.Close)
	user := env.UserNames[0]
	now := env.Clock.Now()
	const baseJobs, requests = 300, 40
	rec := &nullRecorder{header: make(http.Header)}
	get := func(s *core.Server, path string) []byte {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, userGet(t, user, path))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}

	var p95s []time.Duration
	synthesized := 0
	for si, scale := range []int{1, 100, 1000} {
		env.SynthesizeHistory(synthesized, baseJobs*scale-synthesized)
		synthesized = baseJobs * scale

		lats := make([]time.Duration, 0, requests)
		for i := 0; i < requests; i++ {
			window := rollupWindow(now, int64(si*(2*requests+64)+i), 180)
			path := [...]string{
				"/api/usage/cluster?" + window + "&bucket=day",
				"/api/usage/accounts?" + window,
				"/api/jobperf?" + window,
				"/api/jobperf/timeseries?" + window + "&bucket=day",
			}[i%4]
			req := userGet(t, user, path)
			t0 := time.Now()
			status := rec.serve(s, req)
			lats = append(lats, time.Since(t0))
			if status != http.StatusOK {
				t.Fatalf("%dx: GET %s: status %d", scale, path, status)
			}
		}
		p95s = append(p95s, p95(lats))

		window := rollupWindow(now, int64(si), 600)
		for _, path := range []string{
			"/api/usage/cluster?" + window + "&bucket=day",
			"/api/usage/accounts?" + window,
			"/api/usage/efficiency?" + window,
			"/api/jobperf?" + window,
			"/api/jobperf/timeseries?" + window + "&bucket=day",
		} {
			rolled, raw := get(s, path), get(fold, path)
			if string(rolled) != string(raw) {
				t.Fatalf("%dx: rollup and raw fold bodies differ for %s\nrollup: %.200s\nraw:    %.200s",
					scale, path, rolled, raw)
			}
		}
		t.Logf("%dx: %d jobs in accounting, rollup p95 %v", scale, env.Cluster.DBD.JobCount(), p95s[si])
	}
	base := max(p95s[0], 5*time.Millisecond)
	if top := p95s[len(p95s)-1]; float64(top) > 1.5*float64(base) {
		t.Fatalf("rollup p95 at 1000x is %v, above 1.5x the 1x p95 (floored) %v", top, base)
	}
}
