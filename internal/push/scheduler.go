package push

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/etag"
)

// FetchFunc refreshes one source: it returns the widget's response body as
// served, whether it was built from stale last-known-good data (degraded),
// and an error when nothing at all could be produced (cold source during an
// outage). Implementations are expected to route through the server's
// cache + resilience path, so a refresh is exactly as expensive as one
// client's cache-missing poll.
type FetchFunc func(ctx context.Context) (body etag.Body, degraded bool, err error)

// Source registers one refreshable widget instance with the scheduler.
type Source struct {
	// Widget is the event name clients subscribe to.
	Widget string
	// Key uniquely identifies this instance (equal to Widget for
	// cluster-wide sources, "widget:<who shares it>" for the others).
	Key string
	// TTL is the refresh cadence — the same value as the widget's server
	// cache TTL, so the scheduler re-fetches right as the entry expires.
	TTL time.Duration
	// Fetch produces the body.
	Fetch FetchFunc
}

// SchedulerOptions configure a Scheduler.
type SchedulerOptions struct {
	// Clock drives due-time decisions; nil means wall clock.
	Clock clock.Clock
	// Hub receives every refresh result; required.
	Hub *Hub
	// Jitter staggers each source's first refresh by a deterministic
	// fraction of its TTL in [0, Jitter), so sources registered together do
	// not refresh in lockstep forever (thundering refresh). 0 disables.
	Jitter float64
	// ReleaseIdle deletes a due source that has no hub subscriber, and its
	// hub snapshot, instead of refreshing it: a source lives as long as a
	// subscription names it. Registering the key again starts it afresh.
	ReleaseIdle bool
	// OnRefresh observes every attempted refresh with its duration measured
	// on Clock — the same (possibly simulated) clock that drives due times,
	// so chaos drills on a warped clock record the latencies the fetch path
	// actually modeled, not near-zero wall time. nil disables. published
	// reports whether the hub minted a new version.
	OnRefresh func(widget string, d time.Duration, published bool, err error)
}

// SchedulerStats is a snapshot of the scheduler's counters.
type SchedulerStats struct {
	Sources   int
	Refreshes int64 // fetches attempted
	Errors    int64 // fetches that produced no payload
	Released  int64 // due sources deleted because no subscriber wanted them
	Skipped   int64 // cycles stretched because the source was degraded
}

type schedSource struct {
	Source
	nextDue   time.Time
	refreshes int64 // fetches attempted for this source
}

// Scheduler proactively re-fetches registered sources on their TTL cadence
// and publishes the results to the hub. After a degraded result a source's
// next refresh is stretched to 2×TTL, shedding scheduled load from an ailing
// upstream (the resilience breaker handles rapid-fire failures; this handles
// the steady state of a long outage). It is driven by explicit Tick calls:
// tests and the benchmark call Tick after advancing the simulated clock;
// the core server's background loop calls it on a wall-clock ticker.
type Scheduler struct {
	opts SchedulerOptions

	mu      sync.Mutex
	sources map[string]*schedSource
	stats   SchedulerStats
	closed  bool
}

// NewScheduler returns an empty scheduler.
func NewScheduler(opts SchedulerOptions) *Scheduler {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Hub == nil {
		panic("push: NewScheduler: nil Hub")
	}
	return &Scheduler{
		opts:    opts,
		sources: make(map[string]*schedSource),
	}
}

// jitterFor derives a deterministic stagger offset for key in [0, frac*ttl).
func jitterFor(key string, ttl time.Duration, frac float64) time.Duration {
	if frac <= 0 || ttl <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	r := float64(h.Sum64()%1000) / 1000 // deterministic in [0,1)
	return time.Duration(frac * r * float64(ttl))
}

// Register adds src if its key is not yet known and returns whether it was
// added. The first refresh is due after one TTL plus the deterministic
// jitter offset (callers wanting an immediate snapshot use Refresh).
func (s *Scheduler) Register(src Source) (bool, error) {
	if src.Key == "" || src.Widget == "" || src.Fetch == nil || src.TTL <= 0 {
		return false, fmt.Errorf("push: Register: incomplete source %q", src.Key)
	}
	now := s.opts.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, fmt.Errorf("push: Register: scheduler closed")
	}
	if _, ok := s.sources[src.Key]; ok {
		return false, nil
	}
	s.sources[src.Key] = &schedSource{
		Source:  src,
		nextDue: now.Add(src.TTL + jitterFor(src.Key, src.TTL, s.opts.Jitter)),
	}
	s.stats.Sources = len(s.sources)
	return true, nil
}

// SourceRefreshes returns the per-key fetch-attempt counts.
func (s *Scheduler) SourceRefreshes() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.sources))
	for k, src := range s.sources {
		out[k] = src.refreshes
	}
	return out
}

// Refresh fetches key immediately (regardless of due time) and publishes
// the result, returning the stored snapshot. Used at subscribe time to give
// a new client a current snapshot.
func (s *Scheduler) Refresh(ctx context.Context, key string) (Snapshot, error) {
	s.mu.Lock()
	src, ok := s.sources[key]
	if !ok || s.closed {
		s.mu.Unlock()
		return Snapshot{}, fmt.Errorf("push: Refresh: unknown source %q", key)
	}
	cp := src.Source
	s.mu.Unlock()
	return s.refreshOne(ctx, cp)
}

// Tick runs every due refresh synchronously and returns how many sources
// were fetched; with ReleaseIdle, a due source nobody subscribes is
// released instead. Deterministic: sources are refreshed in sorted key
// order.
func (s *Scheduler) Tick() int {
	now := s.opts.Clock.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	due := make([]*schedSource, 0)
	for _, src := range s.sources {
		if !now.Before(src.nextDue) {
			due = append(due, src)
		}
	}
	// Sorted order keeps the refresh sequence (and therefore version
	// assignment) reproducible run over run.
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j-1].Key > due[j].Key; j-- {
			due[j-1], due[j] = due[j], due[j-1]
		}
	}
	jobs := make([]Source, 0, len(due))
	for _, src := range due {
		if s.opts.ReleaseIdle && s.opts.Hub.SubscribersFor(src.Key) == 0 {
			// Released under s.mu: a stream subscribes before it registers,
			// so a Register after this sees neither source nor snapshot and
			// refreshes afresh.
			delete(s.sources, src.Key)
			s.opts.Hub.Forget(src.Key)
			s.stats.Released++
			continue
		}
		src.nextDue = now.Add(src.TTL)
		jobs = append(jobs, src.Source)
	}
	s.mu.Unlock()

	for _, src := range jobs {
		s.refreshOne(context.Background(), src)
	}
	return len(jobs)
}

// refreshOne fetches one source and publishes the result. Duration is
// measured on opts.Clock: the fetch path (cache fills, fault injection,
// upstream latency) models time on that clock, and time.Since would read
// ~0 whenever it is simulated.
func (s *Scheduler) refreshOne(ctx context.Context, src Source) (Snapshot, error) {
	start := s.opts.Clock.Now()
	body, degraded, err := src.Fetch(ctx)
	published := false
	var snap Snapshot
	if err == nil {
		snap, published = s.opts.Hub.Publish(src.Widget, src.Key, body, degraded)
	}
	s.mu.Lock()
	s.stats.Refreshes++
	if err != nil {
		s.stats.Errors++
	}
	if st, ok := s.sources[src.Key]; ok {
		st.refreshes++
		if err == nil && degraded {
			// Degraded means the upstream is failing and the cache served
			// last-known-good data: stretch this source's next refresh to
			// 2×TTL (skip one cycle) until a fresh result returns.
			s.stats.Skipped++
			st.nextDue = s.opts.Clock.Now().Add(2 * st.TTL)
		}
	}
	s.mu.Unlock()
	if s.opts.OnRefresh != nil {
		s.opts.OnRefresh(src.Widget, s.opts.Clock.Now().Sub(start), published, err)
	}
	return snap, err
}

// Stats returns the scheduler's counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Sources = len(s.sources)
	return st
}

// Close rejects further registrations, refreshes and ticks. Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
