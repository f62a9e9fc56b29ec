package core

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/trace"
)

// boundsCounter counts the rollup bounds reads (sreport ... op=bounds) that
// reach the runner it wraps.
type boundsCounter struct {
	inner slurmcli.Runner
	n     atomic.Int64
}

func (c *boundsCounter) Run(name string, args ...string) (string, error) {
	if name == "sreport" && slices.Contains(args, "op=bounds") {
		c.n.Add(1)
	}
	return c.inner.Run(name, args...)
}

// TestRollupAllViewsShareCachedBounds: range=all anchors at the scope's
// earliest terminal end, read as a cached fill like any other. Five rounds
// of all views within one TTL cost one bounds read per scope and series,
// and once warm the views serve stale through a slurmdbd outage past the
// TTL instead of answering 503.
func TestRollupAllViewsShareCachedBounds(t *testing.T) {
	counter := &boundsCounter{}
	e := newEnvWith(t, nil, func(r slurmcli.Runner) slurmcli.Runner {
		counter.inner = r
		return counter
	})
	seedMixedHistory(e)
	// A record from 300 days ago: every all window then spans day buckets,
	// whose cache keys hold for the rest of the day, so only the bounds
	// read decides whether a warm view survives the outage.
	end := e.clock.Now().Add(-300 * 24 * time.Hour)
	tres := slurm.TRES{CPUs: 2, MemMB: 2048, Nodes: 1}
	e.cluster.DBD.Backfill([]*slurm.Job{{
		ID: 1 << 30, Name: "old", User: "alice", Account: "lab-a", Partition: "cpu", QOS: "normal",
		State: slurm.StateCompleted, SubmitTime: end.Add(-2 * time.Hour), StartTime: end.Add(-time.Hour),
		EndTime: end, TimeLimit: 2 * time.Hour, ReqTRES: tres, AllocTRES: tres,
	}})
	e.cluster.DBD.AdvanceRollups(e.clock.Now())

	views := []struct{ user, path string }{
		{"alice", "/api/jobperf?range=all"},
		{"alice", "/api/jobperf/timeseries?range=all"},
		{"alice", "/api/usage/cluster?range=all"},
		{"bob", "/api/usage/efficiency?range=all"},
	}
	for round := 0; round < 5; round++ {
		for _, v := range views {
			e.wantStatus(v.user, v.path, 200)
		}
	}
	// alice's user series and the total scope: one read each.
	if got := counter.n.Load(); got != 2 {
		t.Fatalf("%d all views issued %d bounds reads, want 2", 5*len(views), got)
	}

	e.cluster.DBD.SetHealth(slurm.HealthDown, "maintenance")
	e.advance(3 * time.Minute)
	for _, v := range views {
		status, header, body := e.getFull(v.user, v.path)
		if status != 200 {
			t.Fatalf("%s during the outage: status %d: %s", v.path, status, body)
		}
		if got := header.Get("X-OODDash-Degraded"); got != "stale" {
			t.Fatalf("%s: X-OODDash-Degraded = %q, want stale", v.path, got)
		}
		if !bytes.Contains(body, []byte(`"age_seconds":180`)) {
			t.Fatalf("%s: body lacks the fill's age: %s", v.path, body)
		}
	}
}

// TestRollupPartialBucketFlags pins the half-open alignment contract: a
// window edge inside a bucket widens the response to the whole bucket and
// sets the partial flag — the edge buckets are never silently scaled down
// to the requested sliver.
func TestRollupPartialBucketFlags(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)

	// bob's history: crashy FAILED ends 08:10, train COMPLETED ends 10:00.
	var resp TimeseriesResponse
	e.getJSON("bob", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:30:00Z&to=2026-07-01T10:30:00Z&bucket=hour", &resp)
	if !resp.PartialStart || !resp.PartialEnd {
		t.Fatalf("unaligned window not flagged: %+v", resp)
	}
	if len(resp.Buckets) != 2 {
		t.Fatalf("buckets = %+v", resp.Buckets)
	}
	// The first bucket is the whole 08:00 hour: it includes the 08:10
	// failure even though the request started at 08:30 — flagged, not
	// trimmed.
	if resp.Buckets[0].Start.Hour() != 8 || resp.Buckets[0].Failed != 1 {
		t.Fatalf("partial first bucket = %+v", resp.Buckets[0])
	}

	// Aligned edges: no flags (fresh struct — the flags are omitempty).
	var aligned TimeseriesResponse
	e.getJSON("bob", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:00:00Z&to=2026-07-01T11:00:00Z&bucket=hour", &aligned)
	if aligned.PartialStart || aligned.PartialEnd {
		t.Fatalf("aligned window flagged partial: %+v", aligned)
	}
	if len(aligned.Buckets) != 2 {
		t.Fatalf("aligned buckets = %+v", aligned.Buckets)
	}
}

// TestRollupRangeValidation pins the 400s: degenerate windows, explicit
// buckets too fine for the window, windows outside a resolution's
// retention, and unknown bucket names are client errors — never silently
// served with missing data.
func TestRollupRangeValidation(t *testing.T) {
	e := newEnv(t)
	// Degenerate custom windows: empty and inverted.
	e.wantStatus("alice", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:00:00Z&to=2026-07-01T08:00:00Z", 400)
	e.wantStatus("alice", "/api/jobperf/timeseries?range=custom&from=2026-07-01T09:00:00Z&to=2026-07-01T08:00:00Z", 400)
	// Sub-resolution requests: too many buckets at the explicit resolution.
	e.wantStatus("alice", "/api/jobperf/timeseries?range=90d&bucket=hour", 400)
	e.wantStatus("alice", "/api/jobperf/timeseries?range=7d&bucket=minute", 400)
	// Minute buckets exist for 48h; a 3-day-old window cannot be served
	// at minute resolution even though it is small.
	e.wantStatus("alice", "/api/jobperf/timeseries?range=custom&from=2026-06-28T08:00:00Z&to=2026-06-28T09:00:00Z&bucket=minute", 400)
	// Unknown bucket name, on the usage widgets too.
	e.wantStatus("alice", "/api/usage/cluster?bucket=fortnight", 400)
	// Bad top parameter on the accounts ranking.
	e.wantStatus("alice", "/api/usage/accounts?top=0", 400)
	e.wantStatus("alice", "/api/usage/accounts?top=abc", 400)
}

// TestRollupResolutionSelection pins auto selection: the finest resolution
// that fits the point budget and retention serves the window.
func TestRollupResolutionSelection(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)

	var ts TimeseriesResponse
	e.getJSON("alice", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:00:00Z&to=2026-07-01T11:00:00Z", &ts)
	if ts.Resolution != "minute" || ts.BucketSecs != 60 {
		t.Fatalf("3h window: resolution %q bucket %d, want minute", ts.Resolution, ts.BucketSecs)
	}
	e.getJSON("alice", "/api/jobperf/timeseries?range=24h", &ts)
	if ts.Resolution != "hour" {
		t.Fatalf("24h range: resolution %q, want hour", ts.Resolution)
	}

	var cu ClusterUsageResponse
	e.getJSON("alice", "/api/usage/cluster?range=7d", &cu)
	if cu.Resolution != "hour" {
		t.Fatalf("7d range: resolution %q, want hour", cu.Resolution)
	}
	e.getJSON("alice", "/api/usage/cluster?range=90d", &cu)
	if cu.Resolution != "day" {
		t.Fatalf("90d range: resolution %q, want day", cu.Resolution)
	}
	e.getJSON("alice", "/api/usage/cluster?range=1y", &cu)
	if cu.Resolution != "day" {
		t.Fatalf("1y range: resolution %q, want day", cu.Resolution)
	}
}

// TestRollupMetricsExposed asserts the store-health and query-path families
// land on /metrics.
func TestRollupMetricsExposed(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	e.wantStatus("alice", "/api/usage/cluster?range=7d", 200)
	e.wantStatus("alice", "/api/jobperf/timeseries?range=24h&bucket=hour", 200)
	status, body := e.get("staff", "/metrics")
	if status != 200 {
		t.Fatalf("/metrics status = %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`ooddash_rollup_buckets{resolution="minute"}`,
		`ooddash_rollup_buckets{resolution="hour"}`,
		`ooddash_rollup_buckets{resolution="day"}`,
		`ooddash_rollup_compactions_total{level="hour"}`,
		`ooddash_rollup_compactions_total{level="day"}`,
		"ooddash_rollup_ingested_total",
		"ooddash_rollup_late_direct_total",
		"ooddash_rollup_evicted_buckets_total",
		`ooddash_rollup_queries_total{resolution="hour",selection="auto"}`,
		`ooddash_rollup_queries_total{resolution="hour",selection="explicit"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRollupQueryTraceSpan asserts the rollup read shows up in the trace
// waterfall with its scope and resolution, attributed under the request.
func TestRollupQueryTraceSpan(t *testing.T) {
	e := tracedEnv(t)
	seedMixedHistory(e)
	e.wantStatus("alice", "/api/jobperf?range=24h", 200)

	var list TraceListResponse
	e.getJSON("staff", "/api/admin/traces", &list)
	var id string
	for _, sum := range list.Traces {
		if sum.Widget == "job_perf" {
			id = sum.ID
		}
	}
	if id == "" {
		t.Fatalf("no job_perf trace retained: %+v", list.Traces)
	}
	var tj trace.TraceJSON
	e.getJSON("staff", "/api/admin/traces/"+id, &tj)
	sp := findSpan(tj.Root, "rollup.query")
	if sp == nil {
		t.Fatalf("no rollup.query span in trace: %+v", tj)
	}
	if sp.Attrs["scope"] != "user" || sp.Attrs["resolution"] != "hour" {
		t.Errorf("rollup.query attrs = %v, want scope=user resolution=hour", sp.Attrs)
	}
}

// FuzzPickResolution: for every window a request can produce (a
// FuzzParseTimeRange-style query, range=all anchored at a fuzzed earliest
// end up to ten years back) and any bucket value, pickResolution never
// panics and fails only as a bad request, and auto selection never fails.
// An explicit pick is the named level, spans at most maxExplicitBuckets
// buckets and starts inside that level's retention; an auto pick finer than
// a day fits maxAutoBuckets and its level's retention.
func FuzzPickResolution(f *testing.F) {
	for _, query := range []string{
		"", "range=24h", "range=7d", "range=30d", "range=90d", "range=1y", "range=all",
		"range=custom&from=2026-07-01T05:17:33Z&to=2026-07-01T07:59:01Z",
		"range=custom&from=2026-06-28T08:00:00Z&to=2026-06-28T09:00:00Z",
		"range=custom&from=2024-01-01T00:00:00Z&to=2026-07-01T08:00:00Z",
		"range=custom&from=2026-07-01T09:00:00Z&to=2026-07-03T00:00:01Z",
	} {
		for _, bucket := range []string{"", "minute", "hour", "day", "fortnight"} {
			f.Add(query, bucket, int64(400*86400))
		}
	}
	now := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, query, bucket string, firstAgo int64) {
		tr, err := parseTimeRange(&http.Request{URL: &url.URL{RawQuery: query}})
		if err != nil {
			return // FuzzParseTimeRange covers the parse
		}
		start, end := tr.window(now)
		if start.IsZero() {
			start = now.Add(-time.Duration(1+uint64(firstAgo)%(10*365*86400)) * time.Second)
		}
		res, selection, err := pickResolution(now, start, end, bucket)
		if err != nil {
			if !errors.Is(err, errBadRequest) || bucket == "" {
				t.Fatalf("%q bucket %q: %v", query, bucket, err)
			}
			return
		}
		n := (alignUp(end.Unix(), res) - alignDown(start.Unix(), res)) / res
		retained := false
		for _, level := range rollupResolutions {
			if level.secs == res {
				retained = alignDown(start.Unix(), res) >= now.Unix()-level.retention
			}
		}
		switch {
		case bucket != "":
			if selection != "explicit" || resolutionName(res) != bucket || n > maxExplicitBuckets || !retained {
				t.Fatalf("%q bucket %q: picked %s (%s) over %d buckets, retained %v", query, bucket, resolutionName(res), selection, n, retained)
			}
		case selection != "auto":
			t.Fatalf("%q: auto pick selected %q", query, selection)
		case res < slurm.RollupDay && (n > maxAutoBuckets || !retained):
			t.Fatalf("%q: auto picked %s over %d buckets, retained %v", query, resolutionName(res), n, retained)
		}
	})
}

// sreportCounter counts the sreport commands, rollup rows and bounds reads
// alike, that reach the runner it wraps.
type sreportCounter struct {
	inner slurmcli.Runner
	n     atomic.Int64
}

func (c *sreportCounter) Run(name string, args ...string) (string, error) {
	if name == "sreport" {
		c.n.Add(1)
	}
	return c.inner.Run(name, args...)
}

// countedRollupEnv is the mixed-history env behind an sreport counter, plus
// one alice record that ended three days ago, so her range=all window
// reaches past the minute retention.
func countedRollupEnv(t *testing.T, mutate func(*Config)) (*env, *sreportCounter) {
	counter := &sreportCounter{}
	e := newEnvWith(t, mutate, func(r slurmcli.Runner) slurmcli.Runner {
		counter.inner = r
		return counter
	})
	seedMixedHistory(e)
	end := e.clock.Now().Add(-72 * time.Hour)
	tres := slurm.TRES{CPUs: 2, MemMB: 2048, Nodes: 1}
	e.cluster.DBD.Backfill([]*slurm.Job{{
		ID: 1 << 30, Name: "old", User: "alice", Account: "lab-a", Partition: "cpu", QOS: "normal",
		State: slurm.StateCompleted, SubmitTime: end.Add(-2 * time.Hour), StartTime: end.Add(-time.Hour),
		EndTime: end, TimeLimit: 2 * time.Hour, ReqTRES: tres, AllocTRES: tres,
	}})
	e.cluster.DBD.AdvanceRollups(e.clock.Now())
	return e, counter
}

// TestDrillRollupOutageAcrossBuckets: a rollup fill is keyed by its scope,
// series, range and bucket and evaluated at its own instant, so no key
// moves with the clock. Warm minute, hour and day views serve their last
// fill, stale and with its age, through a slurmdbd outage as the clock
// steps past each view's next bucket boundary — the minute, the hour,
// midnight — like every other widget.
func TestDrillRollupOutageAcrossBuckets(t *testing.T) {
	e := newEnvWith(t, func(c *Config) {
		// A day of stale grace, so the outage can run past midnight.
		c.Resilience.StaleFor = 24 * time.Hour
	}, nil)
	seedMixedHistory(e)
	at := func(day, hour, min, sec int) time.Time { return time.Date(2026, 7, day, hour, min, sec, 0, time.UTC) }
	e.advance(at(1, 22, 55, 30).Sub(e.clock.Now()))
	views := []string{
		"/api/jobperf/timeseries?range=24h&bucket=minute",
		"/api/jobperf",                      // 7d at hour buckets
		"/api/jobperf/timeseries?range=24h", // hour buckets
		"/api/usage/cluster?range=30d",      // day buckets
	}
	for _, v := range views {
		e.wantStatus("alice", v, 200)
	}
	warmed := e.clock.Now()

	e.cluster.DBD.SetHealth(slurm.HealthDown, "maintenance")
	for _, step := range []time.Time{at(1, 22, 58, 1), at(1, 23, 0, 1), at(2, 0, 0, 1)} {
		e.clock.Advance(step.Sub(e.clock.Now()))
		age := fmt.Sprintf(`"age_seconds":%d`, e.clock.Now().Sub(warmed)/time.Second)
		for _, v := range views {
			status, header, body := e.getFull("alice", v)
			if status != 200 {
				t.Fatalf("%s at %s: status %d: %s", v, step.Format(time.TimeOnly), status, body)
			}
			if got := header.Get("X-OODDash-Degraded"); got != "stale" {
				t.Fatalf("%s at %s: X-OODDash-Degraded = %q, want stale", v, step.Format(time.TimeOnly), got)
			}
			if !bytes.Contains(body, []byte(age)) {
				t.Fatalf("%s at %s: body lacks the fill's %s: %s", v, step.Format(time.TimeOnly), age, body)
			}
		}
	}
}

// TestRollupFillsPerRangeClass counts what rollup views cost upstream with
// one fill per scope, series, range and bucket:
//
//   - the minute view polled every 30 s for 10 minutes refills once per
//     TTL: 5 sreport calls;
//   - 5 requests for an all window too long for minute buckets are 400s
//     for one bounds read, the fill that records the pick;
//   - a user's /api/jobperf and /api/jobperf/timeseries share one fill;
//   - over 3 hours of every view a minute apart, the data cache holds one
//     rollup entry per view after each purge.
func TestRollupFillsPerRangeClass(t *testing.T) {
	e, counter := countedRollupEnv(t, nil)
	for i := 0; i < 20; i++ {
		e.wantStatus("alice", "/api/jobperf/timeseries?range=24h&bucket=minute", 200)
		e.clock.Advance(30 * time.Second)
	}
	if got := counter.n.Swap(0); got != 5 {
		t.Fatalf("10 minutes of the minute view cost %d sreport calls, want 5", got)
	}
	for i := 0; i < 5; i++ {
		e.wantStatus("alice", "/api/jobperf/timeseries?range=all&bucket=minute", 400)
	}
	if got := counter.n.Swap(0); got != 1 {
		t.Fatalf("5 bad all requests cost %d sreport calls, want 1", got)
	}
	e.wantStatus("bob", "/api/jobperf", 200)
	e.wantStatus("bob", "/api/jobperf/timeseries", 200)
	if got := counter.n.Swap(0); got != 1 {
		t.Fatalf("/api/jobperf and its time series cost %d sreport calls, want 1", got)
	}

	e, _ = countedRollupEnv(t, nil)
	views := []string{
		"/api/jobperf",
		"/api/jobperf/timeseries?range=24h&bucket=minute",
		"/api/jobperf/timeseries?range=24h",
		"/api/usage/cluster",
		"/api/usage/cluster?range=all",
		"/api/usage/accounts",
		"/api/usage/efficiency",
	}
	for minute := 0; minute < 180; minute++ {
		for _, v := range views {
			e.wantStatus("alice", v, 200)
		}
		e.clock.Advance(time.Minute)
		e.server.TickPush()
		if n := e.server.Cache().Len(); n != len(views) {
			t.Fatalf("minute %d: the data cache holds %d entries after the purge, want one per view (%d)", minute, n, len(views))
		}
	}
}
