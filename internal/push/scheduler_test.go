package push

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ooddash/internal/etag"
)

// countingSource returns a Source whose fetches are counted and whose
// payload changes every call.
func countingSource(widget, key string, ttl time.Duration, calls *atomic.Int64) Source {
	return Source{
		Widget: widget, Key: key, TTL: ttl,
		Fetch: func(context.Context) (etag.Body, bool, error) {
			n := calls.Add(1)
			return etag.New([]byte(fmt.Sprintf(`{"n":%d}`, n))), false, nil
		},
	}
}

func TestSchedulerTTLCadence(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	var calls atomic.Int64
	sched := NewScheduler(SchedulerOptions{Clock: clock, Hub: hub})
	defer sched.Close()
	if ok, err := sched.Register(countingSource("w", "w", 30*time.Second, &calls)); !ok || err != nil {
		t.Fatalf("Register: ok=%v err=%v", ok, err)
	}
	// Re-registering the same key is a no-op.
	if ok, _ := sched.Register(countingSource("w", "w", 30*time.Second, &calls)); ok {
		t.Fatal("duplicate Register reported added")
	}

	// Not yet due: first refresh lands one TTL after registration.
	if n := sched.Tick(); n != 0 {
		t.Fatalf("immediate Tick refreshed %d sources", n)
	}
	clock.Advance(30 * time.Second)
	if n := sched.Tick(); n != 1 {
		t.Fatalf("Tick at TTL refreshed %d sources, want 1", n)
	}
	// A second Tick at the same instant must not re-refresh.
	if n := sched.Tick(); n != 0 {
		t.Fatalf("repeat Tick refreshed %d sources", n)
	}
	// Five more TTL cycles: exactly five more fetches.
	for i := 0; i < 5; i++ {
		clock.Advance(30 * time.Second)
		sched.Tick()
	}
	if got := calls.Load(); got != 6 {
		t.Fatalf("fetches = %d, want 6 (one per TTL cycle)", got)
	}
	if hub.Version() != 6 {
		t.Fatalf("hub version = %d, want 6", hub.Version())
	}
}

// TestSchedulerRefreshDurationOnSimClock pins OnRefresh durations to the
// scheduler's clock: a fetch that advances the simulated clock by 2s (as
// fault-injected fills do in chaos drills) must report ~2s, not the ~0
// wall time the fetch actually took.
func TestSchedulerRefreshDurationOnSimClock(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	const simLatency = 2 * time.Second
	var reported atomic.Int64
	sched := NewScheduler(SchedulerOptions{
		Clock: clock, Hub: hub,
		OnRefresh: func(widget string, d time.Duration, published bool, err error) {
			reported.Store(int64(d))
		},
	})
	defer sched.Close()
	src := Source{
		Widget: "w", Key: "w", TTL: 30 * time.Second,
		Fetch: func(context.Context) (etag.Body, bool, error) {
			clock.Advance(simLatency) // the modeled upstream latency
			return etag.New([]byte(`{"n":1}`)), false, nil
		},
	}
	if ok, err := sched.Register(src); !ok || err != nil {
		t.Fatalf("Register: ok=%v err=%v", ok, err)
	}
	if _, err := sched.Refresh(context.Background(), "w"); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(reported.Load()); got != simLatency {
		t.Fatalf("OnRefresh duration = %v, want %v (simulated clock)", got, simLatency)
	}
}

func TestSchedulerJitterStaggersSources(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	var calls atomic.Int64
	sched := NewScheduler(SchedulerOptions{Clock: clock, Hub: hub, Jitter: 0.5})
	defer sched.Close()
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("w%d", i)
		if _, err := sched.Register(countingSource(k, k, time.Minute, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	// Halfway into the jitter window (TTL + TTL/4): only sources whose
	// deterministic offset has elapsed are due — not none, not all.
	clock.Advance(time.Minute + 15*time.Second)
	first := sched.Tick()
	if first == 0 || first == 8 {
		t.Fatalf("jitter did not stagger: %d/8 due at one instant", first)
	}
	// By the end of the jitter window everything has refreshed once.
	clock.Advance(15 * time.Second)
	sched.Tick()
	if got := calls.Load(); got != 8 {
		t.Fatalf("fetches after TTL+jitter window = %d, want 8", got)
	}
}

func TestSchedulerRefreshNow(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	var calls atomic.Int64
	sched := NewScheduler(SchedulerOptions{Clock: clock, Hub: hub})
	defer sched.Close()
	sched.Register(countingSource("w", "w", time.Minute, &calls))
	snap, err := sched.Refresh(context.Background(), "w")
	if err != nil || snap.Version != 1 {
		t.Fatalf("Refresh: snap=%+v err=%v", snap, err)
	}
	if _, err := sched.Refresh(context.Background(), "nope"); err == nil {
		t.Fatal("Refresh of unknown key succeeded")
	}
}

func TestSchedulerPauseWhenIdle(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	var calls atomic.Int64
	sched := NewScheduler(SchedulerOptions{Clock: clock, Hub: hub, PauseWhenIdle: true})
	defer sched.Close()
	sched.Register(countingSource("w", "w", 30*time.Second, &calls))

	// No subscribers: TTL cycles pass without a single fetch.
	for i := 0; i < 3; i++ {
		clock.Advance(30 * time.Second)
		sched.Tick()
	}
	if calls.Load() != 0 {
		t.Fatalf("idle source fetched %d times", calls.Load())
	}
	if st := sched.Stats(); st.Paused != 3 {
		t.Fatalf("paused = %d, want 3", st.Paused)
	}

	// A subscriber appears: refreshing resumes on the next due cycle.
	sub := hub.Subscribe([]string{"w"})
	defer sub.Close()
	clock.Advance(30 * time.Second)
	sched.Tick()
	if calls.Load() != 1 {
		t.Fatalf("subscribed source fetched %d times, want 1", calls.Load())
	}
}

func TestSchedulerSkipWhenDegraded(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	var calls atomic.Int64
	degraded := atomic.Bool{}
	degraded.Store(true)
	sched := NewScheduler(SchedulerOptions{Clock: clock, Hub: hub})
	defer sched.Close()
	sched.Register(Source{
		Widget: "w", Key: "w", TTL: 30 * time.Second,
		Fetch: func(context.Context) (etag.Body, bool, error) {
			n := calls.Add(1)
			return etag.New([]byte(fmt.Sprintf(`{"n":%d}`, n))), degraded.Load(), nil
		},
	})
	// First refresh comes back degraded...
	clock.Advance(30 * time.Second)
	sched.Tick()
	if calls.Load() != 1 {
		t.Fatalf("fetches = %d, want 1", calls.Load())
	}
	// ...so the next cycle is stretched to 2×TTL: nothing at +30s.
	clock.Advance(30 * time.Second)
	sched.Tick()
	if calls.Load() != 1 {
		t.Fatalf("degraded source refreshed at 1×TTL: fetches = %d", calls.Load())
	}
	clock.Advance(30 * time.Second)
	sched.Tick()
	if calls.Load() != 2 {
		t.Fatalf("degraded source not refreshed at 2×TTL: fetches = %d", calls.Load())
	}
	// Recovery: fresh results restore the 1×TTL cadence.
	degraded.Store(false)
	clock.Advance(60 * time.Second) // still on the stretched cadence for this cycle
	sched.Tick()
	clock.Advance(30 * time.Second)
	sched.Tick()
	if calls.Load() != 4 {
		t.Fatalf("recovered source fetches = %d, want 4", calls.Load())
	}
}

func TestSchedulerFetchErrorPublishesNothing(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	sched := NewScheduler(SchedulerOptions{Clock: clock, Hub: hub})
	defer sched.Close()
	sched.Register(Source{
		Widget: "w", Key: "w", TTL: 30 * time.Second,
		Fetch: func(context.Context) (etag.Body, bool, error) {
			return etag.Body{}, false, errors.New("cold outage")
		},
	})
	clock.Advance(30 * time.Second)
	sched.Tick()
	if _, ok := hub.Latest("w"); ok {
		t.Fatal("failed fetch published a snapshot")
	}
	if st := sched.Stats(); st.Errors != 1 || st.Refreshes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSchedulerCloseRejectsRegister(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	sched := NewScheduler(SchedulerOptions{Clock: clock, Hub: hub})
	sched.Close()
	if _, err := sched.Register(Source{Widget: "w", Key: "w", TTL: time.Second,
		Fetch: func(context.Context) (etag.Body, bool, error) { return etag.Body{}, false, nil }}); err == nil {
		t.Fatal("Register after Close succeeded")
	}
	sched.Close() // idempotent
}

// SourceRefreshes counts fetch attempts per key, scheduled and immediate;
// a duplicate registration is a no-op that keeps the count.
func TestSchedulerSourceRefreshCounts(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	defer hub.Close()
	sched := NewScheduler(SchedulerOptions{Clock: clock, Hub: hub, Jitter: -1})
	defer sched.Close()

	fetch := func(payload string) FetchFunc {
		return func(ctx context.Context) (etag.Body, bool, error) {
			return etag.New([]byte(payload)), false, nil
		}
	}
	for _, key := range []string{"b", "a"} {
		if _, err := sched.Register(Source{Widget: key, Key: key, TTL: time.Minute, Fetch: fetch(key)}); err != nil {
			t.Fatal(err)
		}
	}
	added, err := sched.Register(Source{Widget: "a", Key: "a", TTL: time.Minute, Fetch: fetch("a")})
	if err != nil || added {
		t.Fatalf("duplicate Register = (%v, %v), want (false, nil)", added, err)
	}

	if _, err := sched.Refresh(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(61 * time.Second)
	sched.Tick() // both due
	if got, want := sched.SourceRefreshes(), map[string]int64{"a": 2, "b": 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SourceRefreshes = %v, want %v", got, want)
	}
	if _, err := sched.Refresh(context.Background(), "c"); err == nil {
		t.Fatal("Refresh of an unregistered source succeeded")
	}
}
