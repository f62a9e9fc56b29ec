// Package cache provides the server-side TTL cache the dashboard backend
// uses in front of Slurm commands and external APIs, mirroring the Ruby on
// Rails in-memory cache (`Rails.cache.fetch(key, expires_in:)`) the paper's
// backend relies on (§2.4 Performance).
//
// Beyond plain expiry, Fetch collapses concurrent misses for the same key
// into a single computation (singleflight), so a burst of users refreshing
// the dashboard costs one Slurm query, not N — the stampede protection the
// paper's caching design implies.
//
// FetchStale adds stale-while-error: an expired entry is retained for a
// configurable grace window past its TTL, and when the recompute fails the
// last-known-good value is served flagged as degraded instead of surfacing
// the upstream error. This is what keeps dashboard widgets populated through
// a slurmctld outage.
//
// The cache is sharded: keys hash (FNV-1a) onto one of 16 shards, each with
// its own lock, and the statistics counters are atomics, so concurrent
// widget traffic on a hot cache no longer serializes on a single mutex the
// way the original implementation did. Every stored value also carries a
// cache-wide revision number (Result.Rev) that changes exactly when the
// value is recomputed — the handle the rendered-response layer uses to know
// its materialized JSON bytes are still current without comparing values.
package cache

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/trace"
)

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits        int64 // Fetch served from a live entry
	Misses      int64 // Fetch computed a new value
	Stale       int64 // misses caused by an expired entry (subset of Misses)
	Collapsed   int64 // concurrent Fetch calls that waited on another's compute
	Errors      int64 // compute functions that returned an error
	StaleServed int64 // degraded responses served from an expired entry after a compute error
	BreakerOpen int64 // compute errors that were circuit-breaker short-circuits
}

// counters is the live, atomically updated form of Stats.
type counters struct {
	hits        atomic.Int64
	misses      atomic.Int64
	stale       atomic.Int64
	collapsed   atomic.Int64
	errors      atomic.Int64
	staleServed atomic.Int64
	breakerOpen atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Stale:       c.stale.Load(),
		Collapsed:   c.collapsed.Load(),
		Errors:      c.errors.Load(),
		StaleServed: c.staleServed.Load(),
		BreakerOpen: c.breakerOpen.Load(),
	}
}

func (c *counters) reset() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.stale.Store(0)
	c.collapsed.Store(0)
	c.errors.Store(0)
	c.staleServed.Store(0)
	c.breakerOpen.Store(0)
}

// breakerOpenError is how the cache recognizes a short-circuit from the
// resilience layer without importing it: any error in the chain exposing
// this marker method counts toward Stats.BreakerOpen.
type breakerOpenError interface {
	error
	BreakerOpen() bool
}

type entry struct {
	value      any
	rev        uint64 // cache-wide revision, new on every store
	storedAt   time.Time
	expiresAt  time.Time // fresh until here
	staleUntil time.Time // then servable as degraded until here
}

type call struct {
	wg    sync.WaitGroup
	value any
	rev   uint64
	err   error
}

// Result is the outcome of a FetchStale: the value plus whether it was
// served stale after a compute error, and how old it is.
type Result struct {
	Value any
	// Degraded is true when the value is a retained last-known-good served
	// because recomputing failed.
	Degraded bool
	// Age is how long ago the value was computed.
	Age time.Duration
	// Rev is the stored entry's revision: a nonzero cache-wide sequence
	// number minted when the value was (re)computed. Two Results with equal
	// Rev carry the same stored value, so anything derived from it (e.g. a
	// materialized JSON encoding) can be reused without comparison. Zero
	// means the value was not served from a stored entry (Disabled, ttl<=0).
	Rev uint64
}

// numShards is the shard count; a power of two so the hash maps to a shard
// with a mask. 16 shards keeps the worst-case collision odds low for the
// dashboard's few-hundred-key working set while staying cheap to iterate.
const numShards = 16

// shard is one lock domain: a fraction of the key space with its own entry
// and in-flight call tables.
type shard struct {
	mu      sync.Mutex
	entries map[string]entry
	calls   map[string]*call
}

// Cache is a TTL key-value cache with singleflight miss collapsing. The zero
// value is not usable; use New. All methods are safe for concurrent use.
//
// When Disabled is set every Fetch recomputes — used by the ablation
// benchmarks that reproduce the paper's cache-off comparison.
type Cache struct {
	Disabled bool

	clock  clock.Clock
	rev    atomic.Uint64
	stats  counters
	shards [numShards]shard
}

// New returns an empty cache reading time from clk (nil means wall clock).
func New(clk clock.Clock) *Cache {
	if clk == nil {
		clk = clock.Real{}
	}
	c := &Cache{clock: clk}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]entry)
		c.shards[i].calls = make(map[string]*call)
	}
	return c
}

// shardFor hashes key (inline FNV-1a, no allocation) onto its shard.
func (c *Cache) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h&(numShards-1)]
}

// Fetch returns the cached value for key, computing and storing it with the
// given TTL on a miss. Concurrent misses for the same key share a single
// computation. Compute errors are returned to every waiter and nothing is
// cached, so the next Fetch retries. A ttl <= 0 bypasses storage entirely:
// the compute runs on every call and its result is never cached.
func (c *Cache) Fetch(key string, ttl time.Duration, compute func() (any, error)) (any, error) {
	res, err := c.FetchStale(key, ttl, 0, compute)
	return res.Value, err
}

// FetchStale is Fetch with a stale-while-error grace window: after an entry
// expires it is retained for a further staleFor, and if recomputing fails
// while a retained value exists, that value is returned with
// Result.Degraded set and the error suppressed. Only a cold cache (or an
// entry past its grace window) surfaces the compute error.
func (c *Cache) FetchStale(key string, ttl, staleFor time.Duration, compute func() (any, error)) (Result, error) {
	return c.FetchStaleCtx(context.Background(), key, ttl, staleFor,
		func(context.Context) (any, error) { return compute() })
}

// FetchStaleCtx is FetchStale with a context threaded into the compute
// function. When the context carries an active trace span the cache records
// child spans — "cache.hit" for a live entry, "cache.wait" for a collapsed
// concurrent miss, "cache.fill" around the compute — each annotated with the
// wall-clock shard lock wait, so a trace shows whether a slow request spent
// its time computing or contending. An untraced context adds no work beyond
// one context lookup.
func (c *Cache) FetchStaleCtx(ctx context.Context, key string, ttl, staleFor time.Duration, compute func(context.Context) (any, error)) (Result, error) {
	if c.Disabled {
		fctx, sp := trace.StartSpan(ctx, "cache.fill")
		sp.SetAttr("store", "disabled")
		v, err := compute(fctx)
		endFill(sp, err, false)
		return Result{Value: v}, err
	}
	now := c.clock.Now()

	if ttl <= 0 {
		// Caching disabled for this key: never store, never serve stale.
		c.stats.misses.Add(1)
		fctx, sp := trace.StartSpan(ctx, "cache.fill")
		sp.SetAttr("store", "bypass")
		v, err := compute(fctx)
		endFill(sp, err, false)
		if err != nil {
			c.stats.errors.Add(1)
			return Result{}, err
		}
		return Result{Value: v}, nil
	}

	// Lock waits are measured on the wall clock (the simulated clock cannot
	// see contention), and only for traced requests.
	traced := trace.SpanFromContext(ctx) != nil
	var lockWait time.Duration
	sh := c.shardFor(key)
	if traced {
		t0 := time.Now()
		sh.mu.Lock()
		lockWait = time.Since(t0)
	} else {
		sh.mu.Lock()
	}
	wasStale := false
	if e, ok := sh.entries[key]; ok {
		if now.Before(e.expiresAt) {
			sh.mu.Unlock()
			c.stats.hits.Add(1)
			if traced {
				_, sp := trace.StartSpan(ctx, "cache.hit")
				setLockWait(sp, lockWait)
				sp.End()
			}
			return Result{Value: e.value, Age: now.Sub(e.storedAt), Rev: e.rev}, nil
		}
		// Expired: count the stale miss but keep the entry — it is the
		// last-known-good fallback if the recompute fails.
		c.stats.stale.Add(1)
		wasStale = true
	}
	if inflight, ok := sh.calls[key]; ok {
		sh.mu.Unlock()
		c.stats.collapsed.Add(1)
		_, wsp := trace.StartSpan(ctx, "cache.wait")
		setLockWait(wsp, lockWait)
		inflight.wg.Wait()
		wsp.End()
		if inflight.err != nil {
			return c.serveStale(key, inflight.err)
		}
		return Result{Value: inflight.value, Rev: inflight.rev}, nil
	}
	cl := &call{}
	cl.wg.Add(1)
	sh.calls[key] = cl
	sh.mu.Unlock()
	c.stats.misses.Add(1)

	fctx, fsp := trace.StartSpan(ctx, "cache.fill")
	setLockWait(fsp, lockWait)
	if wasStale {
		fsp.SetAttr("stale", "true")
	}
	cl.value, cl.err = compute(fctx)

	sh.mu.Lock()
	delete(sh.calls, key)
	if cl.err == nil {
		rev := c.rev.Add(1)
		cl.rev = rev
		done := c.clock.Now()
		sh.entries[key] = entry{
			value:      cl.value,
			rev:        rev,
			storedAt:   done,
			expiresAt:  done.Add(ttl),
			staleUntil: done.Add(ttl + staleFor),
		}
		sh.mu.Unlock()
		cl.wg.Done()
		fsp.End()
		return Result{Value: cl.value, Rev: rev}, nil
	}
	sh.mu.Unlock()
	cl.wg.Done()
	c.stats.errors.Add(1)
	res, err := c.serveStale(key, cl.err)
	endFill(fsp, cl.err, err == nil && res.Degraded)
	return res, err
}

// setLockWait annotates a span with the wall-clock shard lock wait. No-op on
// a nil span.
func setLockWait(sp *trace.Span, d time.Duration) {
	if sp == nil {
		return
	}
	sp.SetAttr("lock_wait_us", strconv.FormatInt(d.Microseconds(), 10))
}

// endFill closes a cache.fill span with its outcome attributes. No-op on a
// nil span.
func endFill(sp *trace.Span, err error, staleServed bool) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	if staleServed {
		sp.SetAttr("stale_served", "true")
	}
	sp.End()
}

// serveStale falls back to a retained expired entry after a compute error,
// returning it flagged degraded; when no servable entry exists the error
// surfaces unchanged.
func (c *Cache) serveStale(key string, err error) (Result, error) {
	now := c.clock.Now()
	var boe breakerOpenError
	if errors.As(err, &boe) && boe.BreakerOpen() {
		c.stats.breakerOpen.Add(1)
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	if !ok || !now.Before(e.staleUntil) {
		return Result{}, err
	}
	c.stats.staleServed.Add(1)
	return Result{Value: e.value, Degraded: true, Age: now.Sub(e.storedAt), Rev: e.rev}, nil
}

// Get returns the live (unexpired) value for key, if any.
func (c *Cache) Get(key string) (any, bool) {
	now := c.clock.Now()
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok || !now.Before(e.expiresAt) {
		return nil, false
	}
	return e.value, true
}

// Retained returns the value stored under key, fresh or expired, for as
// long as FetchStale could still serve it as a stale fallback. A compute
// reads it to build its new value from the one it replaces.
func (c *Cache) Retained(key string) (any, bool) {
	now := c.clock.Now()
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	if !ok || !now.Before(e.staleUntil) {
		return nil, false
	}
	return e.value, true
}

// Set stores value under key with the given TTL, replacing any entry. Values
// stored with Set have no stale grace window.
func (c *Cache) Set(key string, value any, ttl time.Duration) {
	now := c.clock.Now()
	rev := c.rev.Add(1)
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.entries[key] = entry{value: value, rev: rev, storedAt: now,
		expiresAt: now.Add(ttl), staleUntil: now.Add(ttl)}
}

// Delete removes key.
func (c *Cache) Delete(key string) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.entries, key)
}

// Clear removes every entry and resets statistics.
func (c *Cache) Clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[string]entry)
		sh.mu.Unlock()
	}
	c.stats.reset()
}

// Purge drops entries past their stale grace window and reports how many
// were removed. Expired-but-graced entries survive: they are still servable
// as degraded fallbacks. Long-lived servers call this periodically (the
// Rails cache does the same lazily).
func (c *Cache) Purge() int {
	now := c.clock.Now()
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if !now.Before(e.staleUntil) {
				delete(sh.entries, k)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// Len returns the number of stored entries, including expired ones not yet
// purged.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a copy of the effectiveness counters.
func (c *Cache) Stats() Stats {
	return c.stats.snapshot()
}

// HitRate returns hits / (hits + misses), or 0 before any traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
