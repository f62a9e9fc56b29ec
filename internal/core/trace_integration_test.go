package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/clock"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/trace"
)

// tracedEnv builds an env with deterministic tracing: every request head-
// sampled, every finished trace retained (baseline probability 1), so tests
// can assert on exact store contents.
func tracedEnv(t *testing.T) *env {
	e := newEnvWith(t, func(c *Config) {
		c.Trace = TraceConfig{Sample: 1}
	}, nil)
	setTraceBaseline(e.server, 1)
	return e
}

// setTraceBaseline rebuilds s's tracer with baseline retention p: 1 keeps
// every fast, healthy trace and a negative p none, so a test can assert on
// exact store contents. Call it before s serves a request.
func setTraceBaseline(s *Server, p float64) {
	cfg := s.traceConfig()
	cfg.Baseline = p
	s.tracer = trace.New(cfg)
}

// findSpan walks a span tree depth-first for the first span whose name has
// the given prefix.
func findSpan(sp *trace.SpanJSON, prefix string) *trace.SpanJSON {
	if sp == nil {
		return nil
	}
	if strings.HasPrefix(sp.Name, prefix) {
		return sp
	}
	for _, c := range sp.Children {
		if got := findSpan(c, prefix); got != nil {
			return got
		}
	}
	return nil
}

// treeDepth returns the deepest nesting level of the span tree (root = 1).
func treeDepth(sp *trace.SpanJSON) int {
	if sp == nil {
		return 0
	}
	max := 0
	for _, c := range sp.Children {
		if d := treeDepth(c); d > max {
			max = d
		}
	}
	return 1 + max
}

// TestTraceSpanDepthEndToEnd is the acceptance check for the tentpole: one
// widget request's exported trace nests HTTP root → cache fill → resilience
// attempt → slurmcli command → daemon handler, with the daemon-side span
// attributed to the right daemon.
func TestTraceSpanDepthEndToEnd(t *testing.T) {
	e := tracedEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 512},
	})
	e.wantStatus("alice", "/api/recent_jobs", 200)

	var list TraceListResponse
	e.getJSON("staff", "/api/admin/traces?widget=recent_jobs", &list)
	if len(list.Traces) != 1 {
		t.Fatalf("retained %d recent_jobs traces, want 1: %+v", len(list.Traces), list.Traces)
	}
	sum := list.Traces[0]
	if sum.Origin != "http" {
		t.Errorf("trace origin = %q, want http", sum.Origin)
	}

	var tj trace.TraceJSON
	e.getJSON("staff", "/api/admin/traces/"+sum.ID, &tj)
	if tj.Root == nil || tj.Root.Name != "http" {
		t.Fatalf("root span = %+v, want name http", tj.Root)
	}
	if d := treeDepth(tj.Root); d < 4 {
		t.Errorf("span tree depth = %d, want >= 4", d)
	}
	// The full chain, layer by layer: each deeper span must sit inside the
	// previous one's subtree.
	chain := tj.Root
	for _, prefix := range []string{"cache.fill", "resilience.attempt", "slurmcli.squeue", "slurmctld.handle"} {
		next := findSpan(chain, prefix)
		if next == nil {
			t.Fatalf("span %q not found under %q; trace: %+v", prefix, chain.Name, tj)
		}
		chain = next
	}
	cmd := findSpan(tj.Root, "slurmcli.squeue")
	if got := cmd.Attrs["daemon"]; got != "slurmctld" {
		t.Errorf("slurmcli.squeue daemon attr = %q, want slurmctld", got)
	}
}

// TestSreportSlowdownTraceAttribution is the deterministic failure-drill
// E2E: a FaultRunner slows sreport (the rollup query command) on the
// simulated clock, the resulting trace is retained as slow with its latency
// concentrated in the slurmdbd child span, the slow-request log line fires
// with the trace ID, and a fast request made alongside is NOT retained.
func TestSreportSlowdownTraceAttribution(t *testing.T) {
	var clk *clock.Sim
	var fr *slurmcli.FaultRunner
	e := newEnvWith(t, func(c *Config) {
		c.Trace = TraceConfig{Sample: 1, Slow: 500 * time.Millisecond}
	}, func(r slurmcli.Runner) slurmcli.Runner {
		fr = slurmcli.NewFaultRunner(r, 1, func(d time.Duration) { clk.Advance(d) })
		return fr
	})
	// Baseline off: only the slow/error tail classes retain, so the fast
	// request's fate is deterministic.
	setTraceBaseline(e.server, -1)
	clk = e.clock
	fr.SetRules(slurmcli.FaultRule{Command: "sreport", Latency: 800 * time.Millisecond})

	var mu sync.Mutex
	var logLines []string
	e.server.SetAccessLog(func(line string) {
		mu.Lock()
		logLines = append(logLines, line)
		mu.Unlock()
	})

	e.wantStatus("alice", "/api/jobperf", 200)     // sreport: slowed by 800ms
	e.wantStatus("alice", "/api/recent_jobs", 200) // squeue: fast

	var list TraceListResponse
	e.getJSON("staff", "/api/admin/traces", &list)
	if len(list.Traces) != 1 {
		t.Fatalf("retained %d traces, want only the slow one: %+v", len(list.Traces), list.Traces)
	}
	sum := list.Traces[0]
	if sum.Widget != "job_perf" || sum.RetainedAs != "slow" {
		t.Errorf("retained trace = widget %q as %q, want job_perf as slow", sum.Widget, sum.RetainedAs)
	}
	if sum.DurationMS < 800 {
		t.Errorf("slow trace duration = %.1fms, want >= 800", sum.DurationMS)
	}

	var tj trace.TraceJSON
	e.getJSON("staff", "/api/admin/traces/"+sum.ID, &tj)
	fault := findSpan(tj.Root, "slurmdbd.fault")
	if fault == nil {
		t.Fatalf("no slurmdbd.fault span in trace: %+v", tj)
	}
	if fault.DurationUS < 800_000 {
		t.Errorf("slurmdbd.fault duration = %dus, want >= 800000", fault.DurationUS)
	}
	// The injected latency must dominate the root: that is what points an
	// operator reading the waterfall at slurmdbd.
	if tj.DurationUS <= 0 || float64(fault.DurationUS) < 0.8*float64(tj.DurationUS) {
		t.Errorf("slurmdbd.fault %dus is not the bulk of the %dus trace", fault.DurationUS, tj.DurationUS)
	}

	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, line := range logLines {
		if strings.Contains(line, "slow-request trace="+sum.ID) {
			found = true
		}
	}
	if !found {
		t.Errorf("no slow-request log line for trace %s in %q", sum.ID, logLines)
	}
}

// TestSelfObservingEndpointsNotTraced is the recursion guard: /metrics and
// the trace-admin endpoints must neither mint traces of themselves nor be
// served from the rendered-response cache.
func TestSelfObservingEndpointsNotTraced(t *testing.T) {
	e := tracedEnv(t)
	e.wantStatus("alice", "/api/recent_jobs", 200) // one real trace as a sentinel

	st := e.server.tracer.Store()
	lenBefore, decBefore := st.Len(), st.Snapshot()

	var list TraceListResponse
	e.getJSON("staff", "/api/admin/traces", &list)
	e.getJSON("staff", "/api/admin/traces", &list)
	e.wantStatus("staff", "/api/admin/traces/deadbeefdeadbeef", 404)
	// The events feed shares a route with the SSE stream; a span there
	// would measure connection lifetime, so it must stay untraced too.
	e.wantStatus("alice", "/api/events", 200)
	status1, body1 := e.get("staff", "/metrics")
	status2, body2 := e.get("staff", "/metrics")
	if status1 != 200 || status2 != 200 {
		t.Fatalf("/metrics status = %d, %d", status1, status2)
	}

	if got := st.Len(); got != lenBefore {
		t.Errorf("observability endpoints grew the trace store: %d -> %d", lenBefore, got)
	}
	if dec := st.Snapshot(); dec != decBefore {
		t.Errorf("observability endpoints changed sampling decisions: %+v -> %+v", decBefore, dec)
	}
	for _, sum := range list.Traces {
		if wd := e.server.widget(sum.Widget); wd != nil && wd.selfObserving {
			t.Errorf("self-observing widget %q has a retained trace", sum.Widget)
		}
	}

	// Cache bypass: consecutive /metrics bodies must differ (the first
	// request increments counters the second reports), and the trace list
	// must reflect traces retained after its first rendering.
	if bytes.Equal(body1, body2) {
		t.Error("/metrics served identical bodies back-to-back; rendered cache not bypassed")
	}
	e.wantStatus("alice", "/api/system_status", 200)
	var after TraceListResponse
	e.getJSON("staff", "/api/admin/traces", &after)
	if after.Retained != lenBefore+1 {
		t.Errorf("trace list retained = %d after new trace, want %d; stale cached response?",
			after.Retained, lenBefore+1)
	}

	// Acceptance: the retained-bytes gauge and the sentinel trace's
	// histogram exemplar are both on /metrics.
	if !bytes.Contains(body2, []byte("ooddash_trace_retained_bytes")) {
		t.Error("/metrics missing ooddash_trace_retained_bytes gauge")
	}
	if !bytes.Contains(body2, []byte(`# {trace_id="`)) {
		t.Error("/metrics missing histogram exemplar annotation")
	}
	if !bytes.Contains(body2, []byte("ooddash_trace_span_seconds")) {
		t.Error("/metrics missing ooddash_trace_span_seconds histogram")
	}
}

// TestPushRefreshTraceOrigin covers the push loopback path: a scheduler-
// driven refresh roots its own trace with origin "push", and the loopback
// request's middleware span joins that trace as a child instead of minting
// an orphaned http root.
func TestPushRefreshTraceOrigin(t *testing.T) {
	e := tracedEnv(t)
	s := e.server

	wd := s.widget("recent_jobs")
	if !wd.push {
		t.Fatal("recent_jobs is not push-enabled")
	}
	if _, _, err := s.pushFetch(wd, auth.User{Name: "alice"})(context.Background()); err != nil {
		t.Fatalf("push refresh: %v", err)
	}

	var list TraceListResponse
	e.getJSON("staff", "/api/admin/traces", &list)
	if len(list.Traces) != 1 {
		t.Fatalf("retained %d traces after one push refresh, want 1: %+v", len(list.Traces), list.Traces)
	}
	sum := list.Traces[0]
	if sum.Origin != "push" || sum.Widget != "recent_jobs" {
		t.Errorf("push trace = widget %q origin %q, want recent_jobs/push", sum.Widget, sum.Origin)
	}

	var tj trace.TraceJSON
	e.getJSON("staff", "/api/admin/traces/"+sum.ID, &tj)
	if tj.Root == nil || tj.Root.Name != "push.refresh" {
		t.Fatalf("push trace root = %+v, want push.refresh", tj.Root)
	}
	httpSpan := findSpan(tj.Root, "http")
	if httpSpan == nil || httpSpan == tj.Root {
		t.Fatalf("loopback http span did not join the push trace: %+v", tj)
	}
	if findSpan(httpSpan, "slurmcli.squeue") == nil {
		t.Errorf("push trace missing the slurmcli.squeue span: %+v", tj)
	}
}
