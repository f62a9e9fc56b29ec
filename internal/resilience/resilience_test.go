package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ooddash/internal/clock"
)

// newTestClock returns a simulated clock: backoff sleeps advance it, so
// retries and breaker windows consume no wall time in these tests.
func newTestClock() *clock.Sim {
	return clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
}

// sleepLog is a simulated clock that also records every backoff sleep.
type sleepLog struct {
	*clock.Sim
	slept []time.Duration
}

func (c *sleepLog) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.Sim.Sleep(d)
}

var errBoom = errors.New("upstream boom")

// failNTimes returns an op that fails its first n calls and then succeeds.
func failNTimes(n int, calls *int) func(context.Context) (any, error) {
	return func(context.Context) (any, error) {
		*calls++
		if *calls <= n {
			return nil, errBoom
		}
		return "ok", nil
	}
}

func testBreaker(clk clock.Clock, p Policy, onChange func(StateChange)) *Breaker {
	return NewBreaker("test", p, clk, 1, onChange)
}

func TestRetryAbsorbsTransientFailure(t *testing.T) {
	clock := newTestClock()
	b := testBreaker(clock, Policy{MaxAttempts: 3, Timeout: -1}, nil)
	var calls int
	v, err := b.Do(context.Background(), failNTimes(2, &calls))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if v != "ok" || calls != 3 {
		t.Fatalf("got %v after %d calls, want ok after 3", v, calls)
	}
	st := b.Snapshot()
	if st.Attempts != 3 || st.Retries != 2 || st.Successes != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.State != Closed {
		t.Fatalf("state = %v, want closed", st.State)
	}
}

func TestExhaustedRetriesReturnUpstreamError(t *testing.T) {
	clock := newTestClock()
	b := testBreaker(clock, Policy{MaxAttempts: 2, Timeout: -1}, nil)
	_, err := b.Do(context.Background(), func(context.Context) (any, error) {
		return nil, errBoom
	})
	var ue *UpstreamError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UpstreamError", err)
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("UpstreamError does not unwrap to the attempt error: %v", err)
	}
	if ue.Source != "test" {
		t.Fatalf("source = %q", ue.Source)
	}
}

func TestBreakerOpensAfterThresholdAndShortCircuits(t *testing.T) {
	clock := newTestClock()
	var changes []StateChange
	p := Policy{MaxAttempts: 1, FailureThreshold: 3, OpenFor: 30 * time.Second, Timeout: -1}
	b := testBreaker(clock, p, func(c StateChange) { changes = append(changes, c) })

	fail := func(context.Context) (any, error) { return nil, errBoom }
	for i := 0; i < 3; i++ {
		if _, err := b.Do(context.Background(), fail); err == nil {
			t.Fatal("expected failure")
		}
	}
	if b.State() != Open {
		t.Fatalf("state after %d failures = %v, want open", 3, b.State())
	}
	if len(changes) != 1 || changes[0].From != Closed || changes[0].To != Open {
		t.Fatalf("changes = %+v", changes)
	}

	// While open, calls short-circuit without touching the upstream.
	var touched bool
	_, err := b.Do(context.Background(), func(context.Context) (any, error) {
		touched = true
		return "ok", nil
	})
	var oe *OpenError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OpenError", err)
	}
	if touched {
		t.Fatal("open breaker let a call through")
	}
	if oe.RetryAfter <= 0 || oe.RetryAfter > 30*time.Second {
		t.Fatalf("RetryAfter = %v", oe.RetryAfter)
	}
	if !oe.BreakerOpen() {
		t.Fatal("OpenError must carry the BreakerOpen marker")
	}
	if st := b.Snapshot(); st.ShortCircuits != 1 || st.Opens != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHalfOpenProbeSuccessCloses(t *testing.T) {
	clock := newTestClock()
	var changes []StateChange
	p := Policy{MaxAttempts: 1, FailureThreshold: 1, OpenFor: 10 * time.Second, Timeout: -1}
	b := testBreaker(clock, p, func(c StateChange) { changes = append(changes, c) })

	if _, err := b.Do(context.Background(), func(context.Context) (any, error) { return nil, errBoom }); err == nil {
		t.Fatal("expected failure")
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}

	clock.Advance(11 * time.Second)
	v, err := b.Do(context.Background(), func(context.Context) (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" {
		t.Fatalf("probe: %v %v", v, err)
	}
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	// closed→open, open→half-open, half-open→closed.
	if len(changes) != 3 || changes[1].To != HalfOpen || changes[2].To != Closed {
		t.Fatalf("changes = %+v", changes)
	}
}

func TestHalfOpenProbeFailureReopens(t *testing.T) {
	clock := newTestClock()
	p := Policy{MaxAttempts: 1, FailureThreshold: 1, OpenFor: 10 * time.Second, Timeout: -1}
	b := testBreaker(clock, p, nil)
	fail := func(context.Context) (any, error) { return nil, errBoom }

	if _, err := b.Do(context.Background(), fail); err == nil {
		t.Fatal("expected failure")
	}
	clock.Advance(11 * time.Second)
	if _, err := b.Do(context.Background(), fail); err == nil {
		t.Fatal("expected probe failure")
	}
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if st := b.Snapshot(); st.Opens != 2 {
		t.Fatalf("opens = %d, want 2", st.Opens)
	}
	// The reopened window starts fresh: a call right away short-circuits.
	var oe *OpenError
	if _, err := b.Do(context.Background(), fail); !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OpenError", err)
	}
}

func TestClassifierSkipsRetryAndBreaker(t *testing.T) {
	clock := newTestClock()
	semantic := errors.New("sacct: unknown job 42")
	p := Policy{
		MaxAttempts:      3,
		FailureThreshold: 1,
		Timeout:          -1,
		Classify:         func(err error) bool { return err != semantic },
	}
	b := testBreaker(clock, p, nil)
	var calls int
	_, err := b.Do(context.Background(), func(context.Context) (any, error) {
		calls++
		return nil, semantic
	})
	if err != semantic {
		t.Fatalf("err = %v, want the semantic error unchanged", err)
	}
	if calls != 1 {
		t.Fatalf("semantic error retried: %d calls", calls)
	}
	if b.State() != Closed {
		t.Fatalf("semantic error moved breaker to %v", b.State())
	}
	var ue *UpstreamError
	if errors.As(err, &ue) {
		t.Fatal("semantic error must not be wrapped as UpstreamError")
	}
}

func TestBackoffConsumesSimulatedTime(t *testing.T) {
	clock := &sleepLog{Sim: newTestClock()}
	start := clock.Now()
	p := Policy{MaxAttempts: 3, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second, Jitter: 0, Timeout: -1}
	b := NewBreaker("test", p, clock, 1, nil)
	_, _ = b.Do(context.Background(), func(context.Context) (any, error) { return nil, errBoom })
	slept := clock.slept
	if got := clock.Now().Sub(start); got != 300*time.Millisecond {
		t.Fatalf("backoff advanced the clock by %v, want 300ms", got)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (between 3 attempts)", len(slept))
	}
	if slept[0] != 100*time.Millisecond || slept[1] != 200*time.Millisecond {
		t.Fatalf("backoffs = %v, want exponential 100ms, 200ms", slept)
	}
}

func TestJitterSpreadsBackoffDeterministically(t *testing.T) {
	run := func() []time.Duration {
		clock := &sleepLog{Sim: newTestClock()}
		p := Policy{MaxAttempts: 4, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second, Jitter: 0.5, Timeout: -1}
		b := NewBreaker("test", p, clock, 7, nil)
		_, _ = b.Do(context.Background(), func(context.Context) (any, error) { return nil, errBoom })
		return clock.slept
	}
	first, second := run(), run()
	if len(first) != 3 {
		t.Fatalf("slept %d times, want 3", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed produced different jitter: %v vs %v", first, second)
		}
		base := 100 * time.Millisecond << i
		if first[i] < base/2 || first[i] > base*3/2 {
			t.Fatalf("backoff %v outside ±50%% of %v", first[i], base)
		}
	}
}

func TestAttemptTimeout(t *testing.T) {
	clock := newTestClock()
	p := Policy{MaxAttempts: 1, Timeout: 20 * time.Millisecond}
	b := testBreaker(clock, p, nil)
	release := make(chan struct{})
	defer close(release)
	_, err := b.Do(context.Background(), func(ctx context.Context) (any, error) {
		<-release // hang past the deadline
		return "late", nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestCanceledContextDoesNotCountAsFailure(t *testing.T) {
	clock := newTestClock()
	p := Policy{MaxAttempts: 2, FailureThreshold: 1, Timeout: -1}
	b := testBreaker(clock, p, nil)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := b.Do(ctx, func(context.Context) (any, error) {
		cancel()
		return nil, errBoom
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if b.State() != Closed {
		t.Fatalf("client cancellation moved breaker to %v", b.State())
	}
	if st := b.Snapshot(); st.Failures != 0 {
		t.Fatalf("client cancellation counted as failure: %+v", st)
	}
}

func TestSetRoutesAndSnapshots(t *testing.T) {
	clock := newTestClock()
	var changes []StateChange
	var mu sync.Mutex
	set := NewSet(Options{
		Clock: clock,
		Seed:  1,
		OnStateChange: func(c StateChange) {
			mu.Lock()
			changes = append(changes, c)
			mu.Unlock()
		},
	})
	set.Register("slurmctld", Policy{MaxAttempts: 1, FailureThreshold: 1, Timeout: -1})
	set.Register("slurmdbd", Policy{MaxAttempts: 1, FailureThreshold: 5, Timeout: -1})

	fail := func(context.Context) (any, error) { return nil, errBoom }
	ok := func(context.Context) (any, error) { return "ok", nil }

	if _, err := set.Do("slurmctld", context.Background(), fail); err == nil {
		t.Fatal("expected failure")
	}
	if _, err := set.Do("slurmdbd", context.Background(), ok); err != nil {
		t.Fatalf("dbd: %v", err)
	}
	// Unknown source lazily registers with defaults.
	if _, err := set.Do("news", context.Background(), ok); err != nil {
		t.Fatalf("news: %v", err)
	}

	snap := set.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	// Sorted by source name.
	if snap[0].Source != "news" || snap[1].Source != "slurmctld" || snap[2].Source != "slurmdbd" {
		t.Fatalf("snapshot order = %v %v %v", snap[0].Source, snap[1].Source, snap[2].Source)
	}
	if snap[1].State != Open {
		t.Fatalf("slurmctld state = %v, want open", snap[1].State)
	}
	if snap[2].Successes != 1 {
		t.Fatalf("slurmdbd successes = %d", snap[2].Successes)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(changes) != 1 || changes[0].Source != "slurmctld" {
		t.Fatalf("changes = %+v", changes)
	}
}

func TestConcurrentDoIsRaceFree(t *testing.T) {
	clock := newTestClock()
	p := Policy{MaxAttempts: 2, FailureThreshold: 3, OpenFor: time.Second, Timeout: -1, Backoff: time.Millisecond, Jitter: 0.5}
	b := testBreaker(clock, p, func(StateChange) {})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				_, _ = b.Do(context.Background(), func(context.Context) (any, error) {
					if (i+n)%3 == 0 {
						return nil, errBoom
					}
					return "ok", nil
				})
			}
		}()
	}
	wg.Wait()
	st := b.Snapshot()
	if st.Attempts == 0 {
		t.Fatal("no attempts recorded")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Closed: "closed", HalfOpen: "half-open", Open: "open", State(9): "unknown",
	} {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestResultHook asserts the OnResult observer sees one attributed outcome
// per Do call: ok, retried, error, short_circuit, and semantic_error.
func TestResultHook(t *testing.T) {
	clock := newTestClock()
	var mu sync.Mutex
	var results []OpResult
	set := NewSet(Options{
		Clock: clock,
		OnResult: func(_ context.Context, r OpResult) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		},
	})
	semantic := errors.New("unknown job")
	set.Register("src", Policy{
		MaxAttempts: 2, Timeout: -1, FailureThreshold: 1, OpenFor: 10 * time.Second,
		Classify: func(err error) bool { return err != semantic },
	})
	ctx := context.Background()

	// ok on first attempt.
	if _, err := set.Do("src", ctx, func(context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	// ok after one retry.
	var calls int
	if _, err := set.Do("src", ctx, failNTimes(1, &calls)); err != nil {
		t.Fatal(err)
	}
	// semantic error: healthy contact, no retry.
	if _, err := set.Do("src", ctx, func(context.Context) (any, error) { return nil, semantic }); err != semantic {
		t.Fatalf("err = %v, want semantic", err)
	}
	// exhausted availability failure: opens the breaker (threshold 1).
	if _, err := set.Do("src", ctx, func(context.Context) (any, error) { return nil, errBoom }); err == nil {
		t.Fatal("want error")
	}
	// short-circuited by the open breaker.
	if _, err := set.Do("src", ctx, func(context.Context) (any, error) { return 1, nil }); err == nil {
		t.Fatal("want short-circuit")
	}

	mu.Lock()
	defer mu.Unlock()
	wantOutcomes := []Outcome{OutcomeOK, OutcomeRetried, OutcomeSemantic, OutcomeError, OutcomeShortCircuit}
	if len(results) != len(wantOutcomes) {
		t.Fatalf("got %d results, want %d: %+v", len(results), len(wantOutcomes), results)
	}
	for i, want := range wantOutcomes {
		r := results[i]
		if r.Outcome != want || r.Source != "src" {
			t.Fatalf("result[%d] = %+v, want outcome %s", i, r, want)
		}
	}
	if results[0].Attempts != 1 || results[1].Attempts != 2 {
		t.Fatalf("attempts = %d, %d; want 1, 2", results[0].Attempts, results[1].Attempts)
	}
	if results[4].Attempts != 0 {
		t.Fatalf("short-circuit attempts = %d, want 0", results[4].Attempts)
	}
	if results[3].Err == nil || results[4].Err == nil {
		t.Fatalf("failure results must carry errors: %+v", results[3:])
	}
}
