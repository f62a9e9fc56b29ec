package core

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/etag"
	"ooddash/internal/obs"
	"ooddash/internal/push"
)

// This file wires the live-update push subsystem (internal/push) into the
// dashboard: the SSE fan-out on GET /api/events, the per-widget refresh
// sources the background scheduler re-fetches on their cache TTL cadence
// (the widgets whose table entry has a push mode), and the server lifecycle
// hooks (StartPush / TickPush / Close).
//
// A refresh is a loopback request through the server's own mux, so it takes
// exactly the route's normal path — auth, cache fill, resilience policy,
// degraded annotation — and costs upstream exactly what one cache-missing
// poll would. Connected SSE clients then receive the bytes the polling
// route would have served them, without issuing requests of their own:
// upstream cost becomes O(sources), not O(clients).

// pushRefreshHeader marks scheduler-issued loopback requests so access logs
// can tell background refreshes from client traffic.
const pushRefreshHeader = "X-OODDash-Push"

// loopbackRecorder captures one internal request's response without a
// network round-trip (a minimal httptest.ResponseRecorder, kept local so
// the serving path does not depend on a test package). Recorders are pooled:
// a refresh fires for every push source on every TTL expiry, and the header
// map plus body buffer are pure scratch between refreshes. Callers that
// retain response bytes past release must copy them out first.
type loopbackRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

var recorderPool = sync.Pool{
	New: func() any { return &loopbackRecorder{header: make(http.Header)} },
}

func newLoopbackRecorder() *loopbackRecorder {
	rec := recorderPool.Get().(*loopbackRecorder)
	rec.status = http.StatusOK
	return rec
}

func (l *loopbackRecorder) release() {
	clear(l.header)
	l.body.Reset()
	recorderPool.Put(l)
}

func (l *loopbackRecorder) Header() http.Header         { return l.header }
func (l *loopbackRecorder) WriteHeader(code int)        { l.status = code }
func (l *loopbackRecorder) Write(p []byte) (int, error) { return l.body.Write(p) }
func (l *loopbackRecorder) Flush()                      {}

// pushFetch builds the scheduler fetch for one widget source: a loopback
// GET of path through the server's own mux as the given user. Cluster-wide
// widgets capture the first subscriber's identity; their payloads are
// user-independent, the credential is only needed to pass the route's auth
// check.
func (s *Server) pushFetch(widget, path, user string) push.FetchFunc {
	return func(ctx context.Context) (etag.Body, bool, error) {
		// Root the refresh in its own trace, origin "push": the loopback
		// request carries the minted ID in the trace header so the instrument
		// middleware joins this trace as a child "http" span instead of
		// minting an orphaned root it would misattribute to client traffic.
		id := obs.NewTraceID()
		tctx, sp := s.tracer.StartRoot(ctx, id, "push.refresh", widget, "push")
		req, err := http.NewRequestWithContext(tctx, http.MethodGet, path, nil)
		if err != nil {
			sp.End()
			return etag.Body{}, false, err
		}
		req.Header.Set(auth.UserHeader, user)
		req.Header.Set("Accept", "application/json")
		req.Header.Set(pushRefreshHeader, "refresh")
		if sp != nil {
			req.Header[traceHeaderKey] = []string{id}
		}
		rec := newLoopbackRecorder()
		defer rec.release()
		s.mux.ServeHTTP(rec, req)
		degraded := rec.header.Get(degradedHeader) != ""
		if sp != nil {
			sp.SetAttr("status", statusLabel(rec.status))
			s.tracer.Finish(sp, rec.status != http.StatusOK, degraded)
		}
		if rec.status != http.StatusOK {
			return etag.Body{}, false, fmt.Errorf("core: push refresh %s: status %d: %.120s",
				path, rec.status, rec.body.Bytes())
		}
		// The hub retains the body; the recorder is about to be reused, so
		// hand over an exact-size copy rather than a view into its buffer. A
		// fresh response already carries its tag, so only a degraded one is
		// hashed here.
		return etag.Served(rec.header, bytes.Clone(rec.body.Bytes())), degraded, nil
	}
}

// PushSource identifies one background refresh source: everything the
// scheduler needs to re-fetch a widget for one subscriber identity.
type PushSource struct {
	Widget string        // event/widget name ("system_status", ...)
	Key    string        // scheduler/hub key (Widget, or "widget:user")
	Path   string        // polling route the loopback refresh fetches
	User   string        // identity the refresh runs as
	TTL    time.Duration // refresh cadence = the widget's cache TTL
}

// pushSource builds the PushSource for a push widget and user.
func pushSource(w *Widget, user string) PushSource {
	return PushSource{
		Widget: w.Name,
		Key:    w.sourceKey(user),
		Path:   w.path(),
		User:   user,
		TTL:    w.TTL,
	}
}

// RegisterPushSource registers src with the background refresh scheduler
// (idempotent). The SSE endpoint calls it for each subscribed widget.
func (s *Server) RegisterPushSource(src PushSource) error {
	_, err := s.pushSched.Register(push.Source{
		Widget: src.Widget,
		Key:    src.Key,
		TTL:    src.TTL,
		Fetch:  s.pushFetch(src.Widget, src.Path, src.User),
	})
	return err
}

// handleEvents dispatches /api/events: an SSE request (Accept:
// text/event-stream or an explicit ?widgets= subscription) gets the
// live-update stream; anything else gets the legacy delta-poll feed.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	wantsSSE := strings.Contains(r.Header.Get("Accept"), "text/event-stream") ||
		r.URL.Query().Get("widgets") != ""
	if wantsSSE && !s.cfg.Push.Disabled {
		s.handleEventStream(w, r)
		return
	}
	s.handleEventsPoll(w, r)
}

// parseSubscription resolves the requested widget set (every push widget
// when the client names none) against the widget table, returning widgets
// in name order.
func (s *Server) parseSubscription(r *http.Request) ([]*Widget, error) {
	var subs []*Widget
	if raw := r.URL.Query().Get("widgets"); raw == "" {
		for i := range s.widgets {
			if s.widgets[i].push != pushNone {
				subs = append(subs, &s.widgets[i])
			}
		}
	} else {
		seen := make(map[string]bool)
		for _, n := range strings.Split(raw, ",") {
			n = strings.TrimSpace(n)
			if n == "" || seen[n] {
				continue
			}
			seen[n] = true
			w := s.widget(n)
			if w == nil || w.push == pushNone {
				return nil, fmt.Errorf("%w: widget %q is not push-enabled", errBadRequest, n)
			}
			subs = append(subs, w)
		}
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("%w: empty widget subscription", errBadRequest)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].Name < subs[j].Name })
	return subs, nil
}

// lastEventID reads the client's resume position: the standard
// Last-Event-ID header (set by EventSource on reconnect), with a
// ?last_event_id= fallback for clients that cannot set headers.
func lastEventID(r *http.Request) int64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 0 {
		return 0
	}
	return id
}

// handleEventStream is the SSE endpoint: it registers refresh sources for
// the subscribed widgets, replays current snapshots newer than the
// client's Last-Event-ID, then streams every new version until the client
// disconnects or the server shuts down.
func (s *Server) handleEventStream(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("core: event stream: response writer cannot flush"))
		return
	}
	subs, err := s.parseSubscription(r)
	if err != nil {
		writeError(w, err)
		return
	}

	// Register each source (idempotent) and make sure a current snapshot
	// exists, so a fresh client paints immediately. The synchronous refresh
	// rides the server cache: when another subscriber already keeps the
	// source warm this costs no upstream call. A failed refresh (cold
	// source during an outage) leaves the stream open; events begin when
	// the source recovers.
	keys := make([]string, 0, len(subs))
	for _, wd := range subs {
		src := pushSource(wd, user.Name)
		keys = append(keys, src.Key)
		if err := s.RegisterPushSource(src); err != nil {
			writeError(w, err)
			return
		}
		if _, held := s.pushHub.Latest(src.Key); !held {
			_, _ = s.pushSched.Refresh(r.Context(), src.Key)
		}
	}

	sub := s.pushHub.Subscribe(keys)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	enc := push.NewEncoder(w)

	// Resume/initial replay: every subscribed widget's current snapshot
	// the client has not seen yet, in version order.
	for _, snap := range s.pushHub.Since(lastEventID(r), keys) {
		if err := enc.WriteEvent(snap.Widget, snap.Version, snap.Body.Bytes); err != nil {
			return
		}
	}
	flusher.Flush()

	// Heartbeats are wall-clock: they exist to keep real sockets and
	// proxies alive, independent of the (possibly simulated) data clock.
	var hbC <-chan time.Time
	if s.cfg.Push.Heartbeat > 0 {
		hb := time.NewTicker(s.cfg.Push.Heartbeat)
		defer hb.Stop()
		hbC = hb.C
	}

	shutdown := func() {
		_ = enc.WriteEvent("shutdown", 0, []byte(`{"reason":"server closing"}`))
		flusher.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.pushDone:
			shutdown()
			return
		case <-sub.Done():
			shutdown()
			return
		case <-hbC:
			if err := enc.WriteComment("hb"); err != nil {
				return
			}
			flusher.Flush()
		case <-sub.Ready():
			for {
				snap, ok := sub.Pop()
				if !ok {
					break
				}
				if err := enc.WriteEvent(snap.Widget, snap.Version, snap.Body.Bytes); err != nil {
					return
				}
			}
			flusher.Flush()
		}
	}
}

// StartPush starts the server's background loop: one goroutine calling
// TickPush every interval of wall time (1 s when interval <= 0) until Close.
// Start it whether or not push is enabled — TickPush also runs the cache
// purge, and a poll-only server still accumulates cache entries. Production
// servers call this once; tests, drills and benchmarks call TickPush
// themselves after advancing the simulated clock.
func (s *Server) StartPush(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	s.tickLoop.Add(1)
	go func() {
		defer s.tickLoop.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.pushDone:
				return
			case <-t.C:
				s.TickPush()
			}
		}
	}()
}

// TickPush is the server's one background step: the cache purge sweep when
// one is due on the shared clock, every due push refresh (run synchronously;
// the count is returned), and SLO alert evaluation. The StartPush loop calls
// it on a wall ticker; simulated-clock runs call it after advancing the
// clock.
func (s *Server) TickPush() int {
	s.maybePurge()
	n := s.pushSched.Tick()
	// Advance the SLO alert state machines after the refreshes so events
	// this tick produced are visible to the evaluation at the new clock
	// reading. (Wall-clock servers also evaluate lazily on every
	// /api/admin/slo and /metrics read — Status is self-evaluating.)
	s.sloEng.Evaluate()
	return n
}

// PushHub exposes the snapshot hub for tests and experiments.
func (s *Server) PushHub() *push.Hub { return s.pushHub }

// PushScheduler exposes the refresh scheduler for tests and experiments.
func (s *Server) PushScheduler() *push.Scheduler { return s.pushSched }

// Close shuts the background work down: the StartPush loop exits (Close
// waits for it, so no tick is in flight once Close returns), the refresh
// scheduler stops, every SSE stream receives a final "shutdown" event and
// ends, and the hub rejects further publishes. The server remains able to
// serve plain HTTP requests (the push path simply reports closed).
// Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.pushDone)
		s.tickLoop.Wait()
		s.pushSched.Close()
		s.pushHub.Close()
	})
}
