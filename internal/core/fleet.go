package core

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"ooddash/internal/push"
)

// This file is the core side of the scale-out fleet tier (internal/fleet):
// the delegate interface a fleet controller installs on each replica and
// the request interception that lets a non-owner replica answer a
// push-enabled widget poll from the owner's rendered bytes, held in its own
// push hub, instead of fetching upstream.
//
// Ownership is per source key (widget, or "widget:user"): the fleet's
// consistent-hash ring assigns each key to exactly one replica, whose
// background scheduler polls the upstream once per TTL. The fleet
// republishes each owner snapshot into every peer's hub, and every other
// replica serves it — the owner's etag.Body, so the exact bytes and ETag
// the owner would have produced, and a client revalidating against any
// replica still gets its 304s — and falls back to a synchronous owner
// refresh (Ensure) when the held copy has aged out, or to a degraded stale
// serve when the owner is unreachable.

// FleetSource identifies one push-enabled refresh source: everything a
// replica needs to register it with its scheduler and re-fetch it locally.
type FleetSource struct {
	Widget string        // event/widget name ("system_status", ...)
	Key    string        // scheduler/hub key (Widget, or "widget:user")
	Path   string        // polling route the loopback refresh fetches
	User   string        // identity the refresh runs as
	TTL    time.Duration // refresh cadence = the widget's cache TTL
}

// FleetDelegate is what a fleet controller installs on a replica via
// SetFleet. All methods are called on request paths and must be safe for
// concurrent use.
type FleetDelegate interface {
	// Owns reports whether this replica is the current refresh owner of key.
	Owns(key string) bool
	// Ensure makes the key's owner produce a current snapshot (registering
	// the source there first if needed), republishes it into every healthy
	// peer's hub and returns it. ok is false when no live owner could
	// serve — the caller then degrades or serves locally.
	Ensure(ctx context.Context, src FleetSource) (push.Snapshot, bool)
	// Touch records client interest in src (bookkeeping for idle reaping)
	// and registers it with the current owner's scheduler if it is new.
	Touch(src FleetSource)
}

// fleetHolder wraps the delegate so it can live in an atomic.Pointer.
type fleetHolder struct{ d FleetDelegate }

// SetFleet installs (or, with nil, removes) the fleet delegate. Safe to
// call while the server is serving; requests observe the change atomically.
func (s *Server) SetFleet(d FleetDelegate) {
	if d == nil {
		s.fleet.Store(nil)
		return
	}
	s.fleet.Store(&fleetHolder{d: d})
}

// fleetDelegate returns the installed delegate, or nil outside a fleet.
func (s *Server) fleetDelegate() FleetDelegate {
	if h := s.fleet.Load(); h != nil {
		return h.d
	}
	return nil
}

// fleetSource builds the FleetSource for a push widget and user.
func fleetSource(w *Widget, user string) FleetSource {
	return FleetSource{
		Widget: w.Name,
		Key:    w.sourceKey(user),
		Path:   w.path(),
		User:   user,
		TTL:    w.TTL,
	}
}

// RegisterPushSource registers src with the background refresh scheduler
// (idempotent). The SSE endpoint calls it for each subscribed widget; in a
// fleet, the fleet controller calls it on the replica that owns src's key.
func (s *Server) RegisterPushSource(src FleetSource) error {
	_, err := s.pushSched.Register(push.Source{
		Widget: src.Widget,
		Key:    src.Key,
		TTL:    src.TTL,
		Fetch:  s.pushFetch(src.Widget, src.Path, src.User),
	})
	return err
}

// PushSourceKeys lists the keys the background scheduler currently polls.
func (s *Server) PushSourceKeys() []string { return s.pushSched.Keys() }

// fleetFreshFor is the peer-serve freshness window: one TTL for the data
// itself plus half a TTL of slack for scheduler jitter and propagation
// batching. Beyond it the peer synchronously re-ensures via the owner.
func fleetFreshFor(ttl time.Duration) time.Duration { return ttl + ttl/2 }

// fleetHeaderKey labels responses served from peer-propagated bytes, in
// canonical MIME form for direct map assignment (wire: X-Ooddash-Fleet).
const fleetHeaderKey = "X-Ooddash-Fleet"

var fleetPeerValue = []string{"peer"}

// fleetIntercept wraps a push widget's handler with the fleet serving
// policy; other widgets' handlers are returned unwrapped. Outside a fleet
// (no delegate installed) it is a transparent pass-through; inside one:
//
//   - the key's owner serves locally as always (its cache is the source of
//     truth) after recording client interest via Touch;
//   - a non-owner serves the owner's snapshot from its own hub while it is
//     fresh, synchronously ensures a current snapshot via the owner when it
//     is not, serves the stale copy marked degraded when the owner is
//     unreachable, and only falls through to a local upstream fetch when it
//     has nothing at all to serve (cold key during an owner outage —
//     availability beats strict ownership).
//
// Only plain widget polls are intercepted: GET, no query string, the
// route's exact path, and not a scheduler loopback refresh (those must
// reach the real fetch path — they are how owners produce snapshots).
func (s *Server) fleetIntercept(wd *Widget, next http.HandlerFunc) http.HandlerFunc {
	if wd.push == pushNone {
		return next
	}
	widget, path := wd.Name, wd.path()
	return func(w http.ResponseWriter, r *http.Request) {
		fd := s.fleetDelegate()
		if fd == nil || r.Method != http.MethodGet || r.URL.RawQuery != "" ||
			r.URL.Path != path || len(r.Header[pushRefreshHeaderKey]) != 0 {
			next(w, r)
			return
		}
		user, err := s.currentUser(r)
		if err != nil {
			next(w, r) // let the route produce its own auth error
			return
		}
		src := fleetSource(wd, user.Name)
		if fd.Owns(src.Key) {
			fd.Touch(src)
			next(w, r)
			return
		}
		snap, ok := s.pushHub.Latest(src.Key)
		if ok && s.clock.Now().Sub(snap.Timestamp) <= fleetFreshFor(wd.TTL) {
			// A degraded copy inside the window still serves directly (with
			// the degraded header): the owner is already stale-serving, and
			// re-ensuring on every peer request would only multiply loopbacks.
			s.writeFleetSnapshot(w, r, wd, snap, false)
			s.obsm.fleetPeerServes.With(widget, "fresh").Inc()
			return
		}
		if es, eok := fd.Ensure(r.Context(), src); eok {
			s.writeFleetSnapshot(w, r, wd, es, false)
			s.obsm.fleetPeerServes.With(widget, "ensured").Inc()
			return
		}
		if ok {
			s.writeFleetSnapshot(w, r, wd, snap, true)
			s.obsm.fleetPeerServes.With(widget, "stale").Inc()
			return
		}
		// No owner and no held copy: serve locally rather than fail.
		s.obsm.fleetPeerServes.With(widget, "local").Inc()
		next(w, r)
	}
}

// writeFleetSnapshot writes the owner's snapshot as the widget response,
// with the same conditional-request and cache-class semantics as the
// owner's rendered path: the one conditional writer for current payloads,
// the degraded header (and no ETag) for degraded or aged-out ones, and the
// private/Vary cache class on per-user routes.
func (s *Server) writeFleetSnapshot(w http.ResponseWriter, r *http.Request, wd *Widget, snap push.Snapshot, stale bool) {
	h := w.Header()
	if wd.push == pushPerUser {
		setPrivateCache(h)
	}
	h[fleetHeaderKey] = fleetPeerValue
	if !snap.Degraded && !stale {
		s.serveBody(w, r, wd.Name, snap.Body)
		return
	}
	h.Set(degradedHeader, "stale")
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap.Body.Bytes)
}

// fleetPtr is the concrete atomic holder type (declared here, next to its
// accessors; the field lives on Server).
type fleetPtr = atomic.Pointer[fleetHolder]
