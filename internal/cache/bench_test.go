package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func BenchmarkFetchHit(b *testing.B) {
	c := New(nil)
	if _, err := c.Fetch("k", time.Hour, func() (any, error) { return 42, nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fetch("k", time.Hour, func() (any, error) { return 0, nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetchMiss(b *testing.B) {
	c := New(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := c.Fetch(key, time.Hour, func() (any, error) { return i, nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetchHitParallel(b *testing.B) {
	c := New(nil)
	if _, err := c.Fetch("k", time.Hour, func() (any, error) { return 42, nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Fetch("k", time.Hour, func() (any, error) { return 0, nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPurge(b *testing.B) {
	clock := newTestClock()
	c := New(clock)
	for i := 0; i < 10_000; i++ {
		c.Set(fmt.Sprintf("k%d", i), i, time.Hour)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Purge() // nothing expired: worst-case full scan
	}
}

// --- Sharded vs single-lock contention ---------------------------------------

// singleLockCache is a reference of the pre-sharding design — one mutex in
// front of one map, with expiry check and stats bumped under that same lock
// — kept here so the contention benchmarks measure the sharding win against
// the real alternative, not a strawman bare map.
type singleLockCache struct {
	mu      sync.Mutex
	entries map[string]singleEntry
	hits    int64
	misses  int64
}

type singleEntry struct {
	value     any
	expiresAt time.Time
}

func (c *singleLockCache) fetch(key string, ttl time.Duration, compute func() any) any {
	now := time.Now()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && now.Before(e.expiresAt) {
		c.hits++
		c.mu.Unlock()
		return e.value
	}
	c.misses++
	c.mu.Unlock()
	v := compute()
	c.mu.Lock()
	c.entries[key] = singleEntry{value: v, expiresAt: now.Add(ttl)}
	c.mu.Unlock()
	return v
}

// benchKeys is a realistic mixed key population (several widgets x users).
var benchKeys = func() []string {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("widget%d:user%d", i%8, i)
	}
	return keys
}()

func BenchmarkShardedHitParallelMultiKey(b *testing.B) {
	c := New(nil)
	for _, k := range benchKeys {
		c.Set(k, k, time.Hour)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := benchKeys[i&(len(benchKeys)-1)]
			i++
			if _, err := c.Fetch(key, time.Hour, func() (any, error) { return nil, nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSingleLockHitParallelMultiKey(b *testing.B) {
	c := &singleLockCache{entries: make(map[string]singleEntry)}
	for _, k := range benchKeys {
		c.entries[k] = singleEntry{value: k, expiresAt: time.Now().Add(time.Hour)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := benchKeys[i&(len(benchKeys)-1)]
			i++
			if v := c.fetch(key, time.Hour, func() any { return nil }); v == nil {
				b.Fatal("miss")
			}
		}
	})
}
