package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var errDown = errors.New("slurmctld down")

func TestFetchStaleServesLastKnownGoodOnError(t *testing.T) {
	clock := newTestClock()
	c := New(clock)

	res, err := c.FetchStale("k", time.Minute, 10*time.Minute, func() (any, error) { return "good", nil })
	if err != nil || res.Value != "good" || res.Degraded {
		t.Fatalf("warm fetch: %+v %v", res, err)
	}

	// Past TTL but inside the grace window: failed recompute serves stale.
	clock.Advance(2 * time.Minute)
	res, err = c.FetchStale("k", time.Minute, 10*time.Minute, func() (any, error) { return nil, errDown })
	if err != nil {
		t.Fatalf("stale fetch surfaced error: %v", err)
	}
	if res.Value != "good" || !res.Degraded {
		t.Fatalf("stale fetch = %+v, want degraded last-known-good", res)
	}
	if res.Age != 2*time.Minute {
		t.Fatalf("age = %v, want 2m", res.Age)
	}
	st := c.Stats()
	if st.StaleServed != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Past the grace window the error surfaces.
	clock.Advance(10 * time.Minute)
	_, err = c.FetchStale("k", time.Minute, 10*time.Minute, func() (any, error) { return nil, errDown })
	if !errors.Is(err, errDown) {
		t.Fatalf("post-grace fetch err = %v, want errDown", err)
	}
}

func TestFetchStaleColdCacheSurfacesError(t *testing.T) {
	c := New(newTestClock())
	_, err := c.FetchStale("cold", time.Minute, time.Hour, func() (any, error) { return nil, errDown })
	if !errors.Is(err, errDown) {
		t.Fatalf("cold fetch err = %v, want errDown", err)
	}
	if st := c.Stats(); st.StaleServed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFetchStaleRecoveryServesFresh(t *testing.T) {
	clock := newTestClock()
	c := New(clock)
	must := func(v any, want string, degraded bool) {
		t.Helper()
		res, err := c.FetchStale("k", time.Minute, time.Hour, func() (any, error) { return v, nil })
		if err != nil || res.Value != want || res.Degraded != degraded {
			t.Fatalf("fetch = %+v %v, want %q degraded=%v", res, err, want, degraded)
		}
	}
	must("v1", "v1", false)
	clock.Advance(2 * time.Minute)
	res, err := c.FetchStale("k", time.Minute, time.Hour, func() (any, error) { return nil, errDown })
	if err != nil || !res.Degraded {
		t.Fatalf("outage fetch = %+v %v", res, err)
	}
	// Upstream recovers: the next fetch recomputes and is no longer degraded.
	must("v2", "v2", false)
	if res, _ := c.FetchStale("k", time.Minute, time.Hour, func() (any, error) { return nil, errors.New("unused") }); res.Value != "v2" || res.Degraded {
		t.Fatalf("fresh entry not cached: %+v", res)
	}
}

type openErr struct{ error }

func (openErr) BreakerOpen() bool { return true }

func TestBreakerOpenErrorsAreCounted(t *testing.T) {
	clock := newTestClock()
	c := New(clock)
	if _, err := c.FetchStale("k", time.Minute, time.Hour, func() (any, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	res, err := c.FetchStale("k", time.Minute, time.Hour, func() (any, error) {
		return nil, openErr{errors.New("circuit open")}
	})
	if err != nil || !res.Degraded {
		t.Fatalf("fetch = %+v %v", res, err)
	}
	if st := c.Stats(); st.BreakerOpen != 1 || st.StaleServed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFetchZeroTTLBypassesStorage(t *testing.T) {
	clock := newTestClock()
	c := New(clock)
	var calls int
	for i := 0; i < 3; i++ {
		v, err := c.Fetch("uncached", 0, func() (any, error) { calls++; return calls, nil })
		if err != nil || v != i+1 {
			t.Fatalf("fetch %d = %v %v", i, v, err)
		}
	}
	if calls != 3 {
		t.Fatalf("compute ran %d times, want 3 (ttl<=0 must not cache)", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("ttl<=0 stored %d entries", c.Len())
	}
	if _, err := c.Fetch("uncached", -time.Second, func() (any, error) { return nil, errDown }); !errors.Is(err, errDown) {
		t.Fatalf("negative ttl err = %v", err)
	}
	st := c.Stats()
	if st.Misses != 4 || st.Errors != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPurgeKeepsGracedEntries(t *testing.T) {
	clock := newTestClock()
	c := New(clock)
	if _, err := c.FetchStale("graced", time.Minute, time.Hour, func() (any, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}
	c.Set("plain", "v", time.Minute)

	clock.Advance(2 * time.Minute)
	if removed := c.Purge(); removed != 1 {
		t.Fatalf("purge removed %d, want only the plain entry", removed)
	}
	// The graced entry still serves as a degraded fallback, and a compute
	// can read it back.
	res, err := c.FetchStale("graced", time.Minute, time.Hour, func() (any, error) { return nil, errDown })
	if err != nil || !res.Degraded {
		t.Fatalf("post-purge fetch = %+v %v", res, err)
	}
	if v, ok := c.Retained("graced"); !ok || v != "v" {
		t.Fatalf("Retained(graced) = %v, %v; want the expired value", v, ok)
	}
	if _, ok := c.Retained("plain"); ok {
		t.Fatal("Retained returned an entry with no grace left")
	}

	clock.Advance(2 * time.Hour)
	if _, ok := c.Retained("graced"); ok {
		t.Fatal("Retained returned an entry past its grace window")
	}
	if removed := c.Purge(); removed != 1 {
		t.Fatalf("purge after grace removed %d, want 1", removed)
	}
}

// TestSingleflightUnderError: N goroutines racing one failing compute observe
// exactly one compute call, every goroutine gets the error, and — because
// errors are not cached — a subsequent Fetch retries the compute.
func TestSingleflightUnderError(t *testing.T) {
	c := New(newTestClock())
	const n = 24
	var calls int32
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Fetch("failing", time.Minute, func() (any, error) {
				calls++
				close(started)
				<-release // hold the flight open until all waiters queue
				return nil, errDown
			})
		}()
	}
	<-started
	// Wait until every other goroutine is parked on the in-flight call.
	for c.Stats().Collapsed != n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight must collapse under error)", calls)
	}
	for i, err := range errs {
		if !errors.Is(err, errDown) {
			t.Fatalf("goroutine %d err = %v, want errDown", i, err)
		}
	}
	// The error was not cached: the next Fetch retries the compute.
	v, err := c.Fetch("failing", time.Minute, func() (any, error) { return "recovered", nil })
	if err != nil || v != "recovered" {
		t.Fatalf("retry fetch = %v %v", v, err)
	}
	if st := c.Stats(); st.Errors != 1 || st.Collapsed != n-1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFetchClearPurgeRace exercises Fetch, FetchStale, Clear, Purge, Set and
// Delete concurrently; run under -race it guards the locking discipline.
func TestFetchClearPurgeRace(t *testing.T) {
	clock := newTestClock()
	c := New(clock)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", (g+i)%4)
				if i%5 == 0 {
					_, _ = c.FetchStale(key, time.Second, time.Minute, func() (any, error) { return nil, errDown })
				} else {
					_, _ = c.Fetch(key, time.Second, func() (any, error) { return i, nil })
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				c.Purge()
			case 1:
				c.Clear()
			case 2:
				c.Set("k0", "set", time.Second)
			case 3:
				c.Delete("k1")
			}
			clock.Advance(200 * time.Millisecond)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
