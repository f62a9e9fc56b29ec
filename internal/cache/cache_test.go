package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ooddash/internal/clock"
)

func newTestClock() *clock.Sim { return clock.NewSim(time.Unix(1_000_000, 0)) }

func TestFetchCachesWithinTTL(t *testing.T) {
	clock := newTestClock()
	c := New(clock)
	calls := 0
	get := func() (any, error) { calls++; return calls, nil }

	v1, err := c.Fetch("k", 30*time.Second, get)
	if err != nil || v1.(int) != 1 {
		t.Fatalf("first fetch = %v, %v", v1, err)
	}
	clock.Advance(29 * time.Second)
	v2, _ := c.Fetch("k", 30*time.Second, get)
	if v2.(int) != 1 || calls != 1 {
		t.Fatalf("second fetch recomputed: v=%v calls=%d", v2, calls)
	}
	clock.Advance(2 * time.Second)
	v3, _ := c.Fetch("k", 30*time.Second, get)
	if v3.(int) != 2 || calls != 2 {
		t.Fatalf("expired fetch did not recompute: v=%v calls=%d", v3, calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Stale != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFetchDistinctKeys(t *testing.T) {
	c := New(newTestClock())
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		want := i
		v, err := c.Fetch(key, time.Minute, func() (any, error) { return want, nil })
		if err != nil || v.(int) != want {
			t.Fatalf("fetch %s = %v, %v", key, v, err)
		}
	}
	if c.Len() != 10 {
		t.Fatalf("len = %d, want 10", c.Len())
	}
}

func TestFetchErrorNotCached(t *testing.T) {
	c := New(newTestClock())
	boom := errors.New("slurm timeout")
	calls := 0
	_, err := c.Fetch("k", time.Minute, func() (any, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err := c.Fetch("k", time.Minute, func() (any, error) { calls++; return "ok", nil })
	if err != nil || v != "ok" || calls != 2 {
		t.Fatalf("retry: v=%v err=%v calls=%d", v, err, calls)
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFetchSingleflightCollapsesConcurrentMisses(t *testing.T) {
	c := New(nil) // real clock: we need real goroutine interleaving
	var computes int32
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() (any, error) {
		atomic.AddInt32(&computes, 1)
		close(started)
		<-release
		return "value", nil
	}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]any, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _ = c.Fetch("k", time.Minute, compute)
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = c.Fetch("k", time.Minute, func() (any, error) {
				atomic.AddInt32(&computes, 1)
				return "wrong", nil
			})
		}(i)
	}
	// Give the waiters a moment to attach to the in-flight call; they either
	// collapse onto it or (rarely, if scheduled after completion) hit cache.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := atomic.LoadInt32(&computes); got != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight)", got)
	}
	for i, r := range results {
		if r != "value" {
			t.Fatalf("result[%d] = %v", i, r)
		}
	}
}

func TestDisabledCacheAlwaysComputes(t *testing.T) {
	c := New(newTestClock())
	c.Disabled = true
	calls := 0
	for i := 0; i < 3; i++ {
		if _, err := c.Fetch("k", time.Hour, func() (any, error) { calls++; return calls, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestGetSetDelete(t *testing.T) {
	clock := newTestClock()
	c := New(clock)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache returned ok")
	}
	c.Set("k", 42, time.Minute)
	if v, ok := c.Get("k"); !ok || v.(int) != 42 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	clock.Advance(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get returned expired entry")
	}
	c.Set("k", 43, time.Minute)
	c.Delete("k")
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get returned deleted entry")
	}
}

func TestPurge(t *testing.T) {
	clock := newTestClock()
	c := New(clock)
	c.Set("short", 1, time.Second)
	c.Set("long", 2, time.Hour)
	clock.Advance(time.Minute)
	if removed := c.Purge(); removed != 1 {
		t.Fatalf("purged = %d, want 1", removed)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestClear(t *testing.T) {
	c := New(newTestClock())
	c.Set("a", 1, time.Hour)
	if _, err := c.Fetch("a", time.Hour, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("entries survive Clear")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats survive Clear: %+v", st)
	}
}

func TestHitRate(t *testing.T) {
	if got := (Stats{}).HitRate(); got != 0 {
		t.Fatalf("empty hit rate = %v", got)
	}
	if got := (Stats{Hits: 3, Misses: 1}).HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

// Property: a value fetched at time T is returned unchanged by any fetch
// before T+TTL and recomputed at or after T+TTL.
func TestTTLBoundaryProperty(t *testing.T) {
	f := func(ttlSec uint8, stepSec uint8) bool {
		ttl := time.Duration(int(ttlSec)%300+1) * time.Second
		step := time.Duration(int(stepSec)%600) * time.Second
		clock := newTestClock()
		c := New(clock)
		calls := 0
		get := func() (any, error) { calls++; return calls, nil }
		if _, err := c.Fetch("k", ttl, get); err != nil {
			return false
		}
		clock.Advance(step)
		v, err := c.Fetch("k", ttl, get)
		if err != nil {
			return false
		}
		if step < ttl {
			return v.(int) == 1 && calls == 1
		}
		return v.(int) == 2 && calls == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
