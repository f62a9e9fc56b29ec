// Package push is the dashboard's live-update subsystem: a background
// refresh scheduler that re-fetches each subscribed data source once per TTL,
// a versioned snapshot hub that fans every refresh out to connected clients,
// and the SSE wire format the core server streams the snapshots with.
//
// The paper's dual-layer cache (§2.4) bounds slurmctld load only while
// clients poll: every polling client still costs a dashboard request, so
// demand grows with user count. The push subsystem inverts the flow — the
// server refreshes each source once per TTL and broadcasts the versioned
// result, making upstream RPC cost O(sources) instead of O(clients).
//
// Everything reads time from an injected clock.Clock and is driven by
// explicit Tick calls, so the whole layer runs deterministically on the
// simulated clock in tests; the core server's background loop calls Tick on
// a wall-clock ticker in production.
package push

import (
	"sort"
	"sync"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/etag"
)

// Snapshot is one immutable versioned refresh result. Versions are hub-wide
// and strictly increasing, so a client's last-seen version orders every
// snapshot it has and has not received regardless of widget.
type Snapshot struct {
	// Widget is the event name clients subscribe to ("system_status", ...).
	Widget string
	// Key identifies the concrete source instance: equal to Widget for
	// cluster-wide sources, "widget:user" for per-user ones.
	Key string
	// Version is the hub-wide sequence number assigned at publish.
	Version int64
	// Body is the widget response exactly as the polling route serves it
	// (trailing newline included), with its ETag. The hub deduplicates by
	// its tag.
	Body etag.Body
	// Degraded marks a payload built from stale last-known-good data while
	// the backing source is down.
	Degraded bool
	// Timestamp is the (simulated) time the content was last confirmed: a
	// publish of unchanged content moves it without minting a version.
	Timestamp time.Time
}

// HubStats is a snapshot of the hub's fan-out counters.
type HubStats struct {
	Subscribers int   // currently connected subscriptions
	Published   int64 // snapshots that got a new version
	Suppressed  int64 // publishes dropped because the tag was unchanged
	Delivered   int64 // snapshots handed to subscriber buffers
	Dropped     int64 // snapshots coalesced away because a subscriber lagged
}

// Hub stores the latest snapshot per source key and fans new versions out to
// subscribers. Publishing never blocks: a slow subscriber coalesces to the
// newest snapshot per key (drop-oldest) rather than back-pressuring the
// refresh loop. All methods are safe for concurrent use.
type Hub struct {
	clock clock.Clock

	mu      sync.Mutex
	version int64
	latest  map[string]Snapshot
	subs    map[*Subscription]struct{}
	closed  bool

	published  int64
	suppressed int64
	// deliveredTotal/droppedTotal fold in counters from closed
	// subscriptions so Stats stays monotonic after clients disconnect.
	deliveredTotal int64
	droppedTotal   int64
}

// NewHub returns an empty hub; a nil clock means wall clock.
func NewHub(clk clock.Clock) *Hub {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Hub{
		clock:  clk,
		latest: make(map[string]Snapshot),
		subs:   make(map[*Subscription]struct{}),
	}
}

// Publish stores a refresh result under key, confirmed now, and fans it
// out. When the stored snapshot has the same tag and degraded flag the
// refresh is suppressed: no new version is minted, subscribers see
// nothing, and only the stored Timestamp moves. The returned snapshot is
// the stored one either way; fresh reports whether a new version was
// minted.
func (h *Hub) Publish(widget, key string, body etag.Body, degraded bool) (Snapshot, bool) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return Snapshot{}, false
	}
	now := h.clock.Now()
	if prev, held := h.latest[key]; held && prev.Body.Tag == body.Tag && prev.Degraded == degraded {
		prev.Timestamp = now // unchanged content, confirmed again
		h.latest[key] = prev
		h.suppressed++
		h.mu.Unlock()
		return prev, false
	}
	h.version++
	snap := Snapshot{Widget: widget, Key: key, Version: h.version, Body: body, Degraded: degraded, Timestamp: now}
	h.latest[key] = snap
	h.published++
	targets := make([]*Subscription, 0, len(h.subs))
	for sub := range h.subs {
		if sub.keys[key] {
			targets = append(targets, sub)
		}
	}
	h.mu.Unlock()
	// Delivery happens outside the hub lock: each subscription has its own
	// coalescing buffer and never blocks the publisher.
	for _, sub := range targets {
		sub.offer(snap)
	}
	return snap, true
}

// Latest returns the stored snapshot for key, if any.
func (h *Hub) Latest(key string) (Snapshot, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.latest[key]
	return s, ok
}

// Since returns the stored snapshots for the given keys whose version is
// greater than after, ordered by version — the resume replay for a client
// reconnecting with a Last-Event-ID.
func (h *Hub) Since(after int64, keys []string) []Snapshot {
	h.mu.Lock()
	out := make([]Snapshot, 0, len(keys))
	for _, k := range keys {
		if s, ok := h.latest[k]; ok && s.Version > after {
			out = append(out, s)
		}
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// Snapshots returns every stored latest snapshot, ordered by key — the
// per-widget version exposition for metrics.
func (h *Hub) Snapshots() []Snapshot {
	h.mu.Lock()
	out := make([]Snapshot, 0, len(h.latest))
	for _, s := range h.latest {
		out = append(out, s)
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Version returns the highest version the hub has minted.
func (h *Hub) Version() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.version
}

// Subscribe registers a subscriber for the given source keys. The caller
// must Close the subscription when done.
func (h *Hub) Subscribe(keys []string) *Subscription {
	sub := &Subscription{
		hub:     h,
		keys:    make(map[string]bool, len(keys)),
		pending: make(map[string]Snapshot, len(keys)),
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	for _, k := range keys {
		sub.keys[k] = true
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(sub.done)
		return sub
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	return sub
}

// SubscriberCount returns the number of open client subscriptions.
func (h *Hub) SubscriberCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// SubscribersFor returns how many open client subscriptions include key —
// the scheduler's pause-when-idle signal.
func (h *Hub) SubscribersFor(key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for sub := range h.subs {
		if sub.keys[key] {
			n++
		}
	}
	return n
}

// Stats returns the hub's counters, aggregating per-subscription delivery
// and drop counts from both live and closed subscriptions.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HubStats{
		Subscribers: len(h.subs),
		Published:   h.published,
		Suppressed:  h.suppressed,
		Delivered:   h.deliveredTotal,
		Dropped:     h.droppedTotal,
	}
	for sub := range h.subs {
		d, dr, _ := sub.counts()
		st.Delivered += d
		st.Dropped += dr
	}
	return st
}

// Close shuts the hub down: every subscription is closed and further
// publishes are ignored.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for sub := range h.subs {
		subs = append(subs, sub)
	}
	h.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

// unsubscribe removes sub, folding its counters into the hub totals.
func (h *Hub) unsubscribe(sub *Subscription) {
	d, dr, _ := sub.counts()
	h.mu.Lock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		h.deliveredTotal += d
		h.droppedTotal += dr
	}
	h.mu.Unlock()
}

// SubStats reports one subscription's delivery counters.
type SubStats struct {
	Delivered int64 // snapshots buffered for this subscriber
	Dropped   int64 // snapshots coalesced away because the subscriber lagged
	Slow      int64 // publishes that found this subscriber already lagging
}

// Subscription is one client's coalescing snapshot buffer. The hub offers
// snapshots into it without ever blocking; the client drains via Ready/Pop.
// A lagging client keeps only the newest snapshot per key — intermediate
// versions are dropped (drop-oldest) and counted.
type Subscription struct {
	hub  *Hub
	keys map[string]bool

	mu        sync.Mutex
	pending   map[string]Snapshot
	delivered int64
	dropped   int64
	slow      int64
	closed    bool

	notify chan struct{}
	done   chan struct{}
}

// offer buffers snap for the subscriber, coalescing onto any undelivered
// snapshot for the same key. Never blocks.
func (s *Subscription) offer(snap Snapshot) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if len(s.pending) > 0 {
		s.slow++
	}
	if _, lagging := s.pending[snap.Key]; lagging {
		// The previous snapshot for this key was never drained: the newest
		// one replaces it (drop-oldest) so a slow client converges on the
		// current state instead of an ever-growing backlog.
		s.dropped++
	}
	s.pending[snap.Key] = snap
	s.delivered++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Ready signals that at least one snapshot may be pending. After receiving,
// drain with Pop until it returns false.
func (s *Subscription) Ready() <-chan struct{} { return s.notify }

// Done is closed when the subscription is closed (client went away or the
// hub shut down).
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Pop removes and returns the lowest-version pending snapshot.
func (s *Subscription) Pop() (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return Snapshot{}, false
	}
	var best Snapshot
	first := true
	for _, snap := range s.pending {
		if first || snap.Version < best.Version {
			best, first = snap, false
		}
	}
	delete(s.pending, best.Key)
	return best, true
}

// Stats returns the subscription's counters.
func (s *Subscription) Stats() SubStats {
	d, dr, sl := s.counts()
	return SubStats{Delivered: d, Dropped: dr, Slow: sl}
}

func (s *Subscription) counts() (delivered, dropped, slow int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered, s.dropped, s.slow
}

// Close detaches the subscription from the hub. Idempotent.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.hub.unsubscribe(s)
	close(s.done)
}
