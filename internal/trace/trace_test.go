package trace

import (
	"context"
	"sync"
	"testing"
	"time"

	"ooddash/internal/clock"
)

func newTestClock() *clock.Sim {
	return clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
}

func newTestTracer(t *testing.T, cfg Config) (*Tracer, *clock.Sim) {
	t.Helper()
	clock := newTestClock()
	cfg.Clock = clock
	return New(cfg), clock
}

func TestNilSpanIsNoOp(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "cache.fill")
	if sp != nil {
		t.Fatalf("StartSpan outside a trace returned %v, want nil", sp)
	}
	if ctx2 != ctx {
		t.Fatalf("StartSpan outside a trace changed the context")
	}
	// Every method must be nil-receiver-safe.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 3)
	sp.End()
	if sp.Root() {
		t.Fatalf("nil span reports Root")
	}
	if sp.Name() != "" {
		t.Fatalf("nil span Name = %q", sp.Name())
	}
}

func TestRootChildTreeAndExport(t *testing.T) {
	tr, clock := newTestTracer(t, Config{Sample: 1, Baseline: 1})
	ctx, root := tr.StartRoot(context.Background(), "trace01", "http", "my_jobs", "http")
	if root == nil || !root.Root() {
		t.Fatalf("StartRoot returned %v", root)
	}
	cctx, fill := StartSpan(ctx, "cache.fill")
	clock.Advance(10 * time.Millisecond)
	_, cmd := StartSpan(cctx, "slurmcli.sacct")
	cmd.SetAttr("daemon", "slurmdbd")
	clock.Advance(30 * time.Millisecond)
	cmd.End()
	fill.End()
	clock.Advance(5 * time.Millisecond)

	sum, kept := tr.Finish(root, false, false)
	if !kept {
		t.Fatalf("trace not retained with Baseline=1: %+v, decisions %+v", sum, tr.Store().Snapshot())
	}
	if sum.Spans != 3 {
		t.Fatalf("Spans = %d, want 3", sum.Spans)
	}
	if want := 45 * time.Millisecond; sum.Duration() != want {
		t.Fatalf("Duration = %v, want %v", sum.Duration(), want)
	}

	stored, ok := tr.Store().Get("trace01")
	if !ok {
		t.Fatalf("trace not in store")
	}
	exp := stored.Export()
	if exp.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", exp.Depth())
	}
	if exp.DurationUS != 45_000 {
		t.Fatalf("DurationUS = %d, want 45000", exp.DurationUS)
	}
	fillJSON := exp.Root.Children[0]
	if fillJSON.Name != "cache.fill" || fillJSON.DurationUS != 40_000 {
		t.Fatalf("fill span = %+v", fillJSON)
	}
	cmdJSON := fillJSON.Children[0]
	if cmdJSON.Name != "slurmcli.sacct" || cmdJSON.OffsetUS != 10_000 ||
		cmdJSON.DurationUS != 30_000 || cmdJSON.Attrs["daemon"] != "slurmdbd" {
		t.Fatalf("cmd span = %+v", cmdJSON)
	}
}

func TestFinishOnChildIsNoOp(t *testing.T) {
	tr, _ := newTestTracer(t, Config{Sample: 1, Baseline: 1})
	ctx, root := tr.StartRoot(context.Background(), "trace02", "push.refresh", "accounts", "push")
	_, child := tr.StartRoot(ctx, "tr-inner", "http", "accounts", "http")
	if child == nil || child.Root() {
		t.Fatalf("StartRoot inside a trace should return a child span, got %v", child)
	}
	if _, kept := tr.Finish(child, false, false); kept {
		t.Fatalf("Finish on a child span retained a trace")
	}
	child.End()
	if _, kept := tr.Finish(root, false, false); !kept {
		t.Fatalf("root Finish not retained")
	}
	stored, _ := tr.Store().Get("trace02")
	exp := stored.Export()
	if exp.Origin != "push" || exp.Root.Name != "push.refresh" ||
		len(exp.Root.Children) != 1 || exp.Root.Children[0].Name != "http" {
		t.Fatalf("push trace tree = %+v", exp)
	}
}

func TestHeadSampling(t *testing.T) {
	tr, _ := newTestTracer(t, Config{Sample: 1})
	tr.SetSample(-1)
	if ctx, sp := tr.StartRoot(context.Background(), "id1", "http", "w", "http"); sp != nil || SpanFromContext(ctx) != nil {
		t.Fatalf("disabled tracer started a root span")
	}
	tr.SetSample(0)
	if _, sp := tr.StartRoot(context.Background(), "id1", "http", "w", "http"); sp != nil {
		t.Fatalf("sample 0 started a root span")
	}
	tr.SetSample(1)
	if _, sp := tr.StartRoot(context.Background(), "id1", "http", "w", "http"); sp == nil {
		t.Fatalf("sample 1 did not start a root span")
	}
	// A fractional rate keeps a stable, roughly proportional subset.
	tr.SetSample(0.5)
	kept := 0
	const n = 2000
	for i := 0; i < n; i++ {
		id := "trace-" + itoa(i)
		if tr.sampled(id) != tr.sampled(id) {
			t.Fatalf("sampling decision not stable for %s", id)
		}
		if tr.sampled(id) {
			kept++
		}
	}
	if kept < n/3 || kept > 2*n/3 {
		t.Fatalf("sample 0.5 kept %d of %d", kept, n)
	}
}

func TestTailRetentionClasses(t *testing.T) {
	tr, clock := newTestTracer(t, Config{
		Sample: 1, Slow: 100 * time.Millisecond, Baseline: -1, SlowKeepN: -1,
	})
	finish := func(id string, d time.Duration, isErr, degraded bool) bool {
		ctx := context.Background()
		_, root := tr.StartRoot(ctx, id, "http", "w", "http")
		clock.Advance(d)
		_, kept := tr.Finish(root, isErr, degraded)
		return kept
	}
	if finish("fast-ok", 0, false, false) {
		t.Fatalf("fast healthy trace retained with baseline disabled")
	}
	if !finish("slow", 150*time.Millisecond, false, false) {
		t.Fatalf("slow trace not retained")
	}
	if !finish("err", 0, true, false) {
		t.Fatalf("error trace not retained")
	}
	if !finish("deg", 0, false, true) {
		t.Fatalf("degraded trace not retained")
	}
	d := tr.Store().Snapshot()
	if d.KeptError != 2 || d.KeptSlow != 1 || d.Dropped != 1 {
		t.Fatalf("decisions = %+v", d)
	}
	sum, _ := tr.Store().Summary("slow")
	if sum.RetainedAs != "slow" {
		t.Fatalf("slow trace RetainedAs = %q", sum.RetainedAs)
	}
}

func TestSlowestNPerWidgetWindow(t *testing.T) {
	tr, clock := newTestTracer(t, Config{
		Sample: 1, Slow: time.Hour, Baseline: -1, SlowKeepN: 2, Window: time.Minute,
	})
	finish := func(id, widget string, d time.Duration) bool {
		_, root := tr.StartRoot(context.Background(), id, "http", widget, "http")
		clock.Advance(d)
		_, kept := tr.Finish(root, false, false)
		return kept
	}
	// First two nonzero durations fill widget A's top-2.
	if !finish("a1", "A", 10*time.Millisecond) || !finish("a2", "A", 20*time.Millisecond) {
		t.Fatalf("initial slow slots not retained")
	}
	// Slower than the current min displaces it; faster does not qualify.
	if !finish("a3", "A", 30*time.Millisecond) {
		t.Fatalf("slower trace not retained")
	}
	if finish("a4", "A", 5*time.Millisecond) {
		t.Fatalf("fast trace retained despite full top-N")
	}
	// Zero-duration traces never qualify, even with free slots.
	if finish("b0", "B", 0) {
		t.Fatalf("zero-duration trace retained as slow")
	}
	// A new window resets the tracker.
	clock.Advance(2 * time.Minute)
	if !finish("a5", "A", 1*time.Millisecond) {
		t.Fatalf("new window did not reset the slowest-N tracker")
	}
}

func TestSpanCap(t *testing.T) {
	tr, _ := newTestTracer(t, Config{Sample: 1, Baseline: 1})
	ctx, root := tr.StartRoot(context.Background(), "cap", "http", "w", "http")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := StartSpan(ctx, "cache.hit")
		sp.End()
	}
	sum, kept := tr.Finish(root, false, false)
	if !kept {
		t.Fatalf("capped trace not retained")
	}
	if sum.Spans != maxSpansPerTrace {
		t.Fatalf("Spans = %d, want %d", sum.Spans, maxSpansPerTrace)
	}
	stored, _ := tr.Store().Get("cap")
	if exp := stored.Export(); exp.DroppedSpans != 11 {
		t.Fatalf("DroppedSpans = %d, want 11", exp.DroppedSpans)
	}
}

func TestOnSpanExtractionAndOnSlow(t *testing.T) {
	var mu sync.Mutex
	layers := map[string]int{}
	var slow []Summary
	tr, clock := newTestTracer(t, Config{
		Sample: 1, Slow: 50 * time.Millisecond, Baseline: -1, SlowKeepN: -1,
		OnSpan: func(layer string, seconds float64) {
			mu.Lock()
			layers[layer]++
			mu.Unlock()
		},
		OnSlow: func(s Summary) {
			mu.Lock()
			slow = append(slow, s)
			mu.Unlock()
		},
	})
	ctx, root := tr.StartRoot(context.Background(), "x1", "http", "w", "http")
	cctx, fill := StartSpan(ctx, "cache.fill")
	_, cmd := StartSpan(cctx, "slurmcli.squeue")
	clock.Advance(60 * time.Millisecond)
	cmd.End()
	fill.End()
	tr.Finish(root, false, false)

	if layers["http"] != 1 || layers["cache"] != 1 || layers["slurmcli"] != 1 {
		t.Fatalf("extracted layers = %v", layers)
	}
	if len(slow) != 1 || slow[0].ID != "x1" {
		t.Fatalf("OnSlow calls = %+v", slow)
	}

	// Dropped traces still extract timings (the whole point of tail
	// sampling): a fast trace below every retention class.
	ctx, root = tr.StartRoot(context.Background(), "x2", "http", "w", "http")
	_, hit := StartSpan(ctx, "cache.hit")
	hit.End()
	if _, kept := tr.Finish(root, false, false); kept {
		t.Fatalf("fast trace retained")
	}
	if layers["cache"] != 2 {
		t.Fatalf("dropped trace did not extract span timings: %v", layers)
	}
}

// TestStoreBoundUnderConcurrency is the -race bound test: concurrent
// publishers never grow the store past its max, and eviction prefers
// fast/OK traces over slow/degraded ones.
func TestStoreBoundUnderConcurrency(t *testing.T) {
	const max = 16
	tr, clock := newTestTracer(t, Config{
		Sample: 1, StoreMax: max, Baseline: 1, Slow: 10 * time.Millisecond, SlowKeepN: -1,
	})
	store := tr.Store()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	// A watcher hammers the read surface while publishers churn.
	go func() {
		defer close(watcherDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := store.Len(); n > max {
				t.Errorf("store holds %d traces, max %d", n, max)
				return
			}
			store.RetainedBytes()
			store.List(Filter{})
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := "g" + itoa(g) + "-" + itoa(i)
				ctx, root := tr.StartRoot(context.Background(), id, "http", "w", "http")
				_, sp := StartSpan(ctx, "cache.hit")
				sp.End()
				degraded := i%3 == 0
				tr.Finish(root, false, degraded)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-watcherDone

	if n := store.Len(); n > max {
		t.Fatalf("store holds %d traces after churn, max %d", n, max)
	}
	d := store.Snapshot()
	if d.KeptError == 0 {
		t.Fatalf("no degraded traces retained: %+v", d)
	}

	// Eviction preference: fill the store with error-class traces, then a
	// baseline trace must be rejected, not displace one of them.
	tr2, clock2 := newTestTracer(t, Config{
		Sample: 1, StoreMax: 4, Baseline: 1, Slow: time.Hour, SlowKeepN: -1,
	})
	for i := 0; i < 4; i++ {
		_, root := tr2.StartRoot(context.Background(), "err"+itoa(i), "http", "w", "http")
		tr2.Finish(root, true, false)
	}
	_, root := tr2.StartRoot(context.Background(), "fast", "http", "w", "http")
	if _, kept := tr2.Finish(root, false, false); kept {
		t.Fatalf("baseline trace displaced an error trace")
	}
	if _, ok := tr2.Store().Get("err0"); !ok {
		t.Fatalf("error trace evicted by a baseline trace")
	}
	// The reverse direction: a store full of baseline traces yields to an
	// error trace, evicting the oldest baseline first.
	tr3, _ := newTestTracer(t, Config{
		Sample: 1, StoreMax: 2, Baseline: 1, Slow: time.Hour, SlowKeepN: -1,
	})
	for i := 0; i < 2; i++ {
		_, r := tr3.StartRoot(context.Background(), "base"+itoa(i), "http", "w", "http")
		tr3.Finish(r, false, false)
	}
	_, r := tr3.StartRoot(context.Background(), "boom", "http", "w", "http")
	if _, kept := tr3.Finish(r, true, false); !kept {
		t.Fatalf("error trace rejected by a store full of baselines")
	}
	if _, ok := tr3.Store().Get("base0"); ok {
		t.Fatalf("oldest baseline survived eviction")
	}
	if _, ok := tr3.Store().Get("boom"); !ok {
		t.Fatalf("error trace not stored after eviction")
	}
	_ = clock
	_ = clock2
}

func TestListFilters(t *testing.T) {
	tr, clock := newTestTracer(t, Config{Sample: 1, Baseline: 1, Slow: 100 * time.Millisecond, SlowKeepN: -1})
	mk := func(id, widget string, d time.Duration, degraded bool) {
		_, root := tr.StartRoot(context.Background(), id, "http", widget, "http")
		clock.Advance(d)
		tr.Finish(root, false, degraded)
	}
	mk("t1", "my_jobs", 0, false)
	mk("t2", "my_jobs", 200*time.Millisecond, false)
	mk("t3", "accounts", 300*time.Millisecond, true)

	if got := tr.Store().List(Filter{}); len(got) != 3 || got[0].ID != "t3" {
		t.Fatalf("List(all) = %+v", got)
	}
	if got := tr.Store().List(Filter{Widget: "my_jobs"}); len(got) != 2 {
		t.Fatalf("List(widget) = %+v", got)
	}
	if got := tr.Store().List(Filter{MinDuration: 150 * time.Millisecond}); len(got) != 2 {
		t.Fatalf("List(min duration) = %+v", got)
	}
	if got := tr.Store().List(Filter{DegradedOnly: true}); len(got) != 1 || got[0].ID != "t3" {
		t.Fatalf("List(degraded) = %+v", got)
	}
	if got := tr.Store().List(Filter{Limit: 1}); len(got) != 1 || got[0].ID != "t3" {
		t.Fatalf("List(limit) = %+v", got)
	}
}

func TestRetainedBytesAccounting(t *testing.T) {
	tr, _ := newTestTracer(t, Config{Sample: 1, StoreMax: 2, Baseline: 1, Slow: time.Hour, SlowKeepN: -1})
	for i := 0; i < 5; i++ {
		ctx, root := tr.StartRoot(context.Background(), "t"+itoa(i), "http", "w", "http")
		_, sp := StartSpan(ctx, "cache.hit")
		sp.SetAttr("k", "value")
		sp.End()
		tr.Finish(root, false, false)
	}
	store := tr.Store()
	if store.Len() != 2 {
		t.Fatalf("Len = %d, want 2", store.Len())
	}
	var want int64
	for _, s := range store.List(Filter{}) {
		if s.Bytes <= 0 {
			t.Fatalf("summary carries no byte estimate: %+v", s)
		}
		want += int64(s.Bytes)
	}
	if got := store.RetainedBytes(); got != want {
		t.Fatalf("RetainedBytes = %d, want sum of entries %d", got, want)
	}
}
