package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"ooddash/internal/etag"
	"ooddash/internal/resilience"
	"ooddash/internal/slurmcli"
)

// Data-source names the resilience layer keys its breakers by. Each source
// fails independently — a slurmdbd outage must not open the slurmctld
// breaker — so they get separate circuits, matching the daemon split in the
// simulator.
const (
	srcCtld    = "slurmctld"
	srcDBD     = "slurmdbd"
	srcNews    = "news"
	srcStorage = "storage"
)

// degradedHeader marks responses served from an expired cache entry because
// the backing source is down. Clients (and the load generator) count it.
const degradedHeader = "X-OODDash-Degraded"

// fetchMeta describes how a widget's data was obtained: fresh, or stale
// last-known-good after an upstream failure. rev and ttl are the handle the
// rendered-response layer keys its materialized bytes by: rev identifies the
// exact cached value(s) the payload was built from (0 = not cacheable), and
// ttl bounds how long those bytes may be reused.
type fetchMeta struct {
	Degraded bool
	Age      time.Duration
	rev      uint64
	ttl      time.Duration
}

// absorb merges another fetch's metadata, for handlers assembled from
// several cache entries: the response is degraded if any part is, its age is
// the oldest part's, its ttl the shortest, and its rev a hash-combine of the
// parts' revs (so the combined rev changes whenever any part refreshes, and
// any uncacheable part — rev 0 — poisons the whole to uncacheable).
func (m *fetchMeta) absorb(other fetchMeta) {
	m.Degraded = m.Degraded || other.Degraded
	if other.Age > m.Age {
		m.Age = other.Age
	}
	if m.ttl == 0 {
		// Identity element: an empty fetchMeta adopts the first absorbed one.
		m.rev, m.ttl = other.rev, other.ttl
		return
	}
	if other.ttl > 0 && other.ttl < m.ttl {
		m.ttl = other.ttl
	}
	if m.rev == 0 || other.rev == 0 {
		m.rev = 0
		return
	}
	m.rev = m.rev*1099511628211 ^ other.rev
}

// fetchVia is the policy path every cached route goes through: the cache in
// front, then the source's retry/timeout/circuit-breaker policy around the
// compute. On compute failure a retained last-known-good value comes back
// with Degraded set instead of the error.
//
// The request context (carrying the middleware's trace ID and active span)
// flows through the cache into the resilience layer and on into compute, so
// the OnResult hook can attribute upstream latency back to the request that
// observed it and every layer's span lands in the same trace. compute
// receives the attempt-scoped context; Slurm call sites bind it into the
// runner via s.runnerCtx. The per-source result — ok (cache hits included),
// degraded, or error — lands in the fetch-results counter.
func (s *Server) fetchVia(r *http.Request, source, key string, ttl time.Duration, compute func(context.Context) (any, error)) (any, fetchMeta, error) {
	gate := s.fills[source]
	res, err := s.cache.FetchStaleCtx(r.Context(), key, ttl, s.cfg.Resilience.StaleFor, func(ctx context.Context) (any, error) {
		// Admission runs inside the cache's compute so singleflight waiters
		// never consume slots, and before the resilience layer so a rejected
		// fill is backpressure — it neither retries nor trips the breaker. A
		// key with a retained stale value absorbs the rejection as a degraded
		// serve; a cold key surfaces it as 503 + Retry-After.
		if !gate.tryAcquire() {
			return nil, &FillSaturatedError{Source: source, RetryAfter: fillRetryAfter}
		}
		defer gate.release()
		return s.res.Do(source, ctx, compute)
	})
	oc := s.obsm.fetchOutcome[source]
	switch {
	case err != nil:
		var fe *FillSaturatedError
		if errors.As(err, &fe) {
			oc.rejected.Inc()
		} else {
			oc.err.Inc()
		}
		return nil, fetchMeta{}, err
	case res.Degraded:
		oc.degraded.Inc()
	default:
		oc.ok.Inc()
	}
	return res.Value, fetchMeta{Degraded: res.Degraded, Age: res.Age, rev: res.Rev, ttl: ttl}, nil
}

// runResilient runs an uncached upstream call through the source's policy —
// for the few routes that query outside the cache. The request context
// propagates the trace ID and active span into the resilience layer; op
// receives the attempt-scoped context.
func (s *Server) runResilient(r *http.Request, source string, op func(context.Context) (any, error)) (any, error) {
	v, err := s.res.Do(source, r.Context(), op)
	oc := s.obsm.fetchOutcome[source]
	if err != nil {
		oc.err.Inc()
	} else {
		oc.ok.Inc()
	}
	return v, err
}

// isUnavailable reports whether err means the data source could not serve —
// an injected or simulated outage, a timed-out attempt, or the resilience
// layer's own wrappers — as opposed to a semantic error like an unknown job.
func isUnavailable(err error) bool {
	var oe *resilience.OpenError
	var ue *resilience.UpstreamError
	var fe *FillSaturatedError
	return errors.As(err, &oe) || errors.As(err, &ue) || errors.As(err, &fe) ||
		slurmcli.IsUnavailable(err)
}

// retryAfterJitterSecs bounds the random seconds added on top of every
// Retry-After hint. Cold 503s from an outage or a saturated fill gate hit a
// whole cohort of clients in the same instant; if they all honor the same
// hint they come back in the same instant too and re-stampede. The jitter
// spreads the cohort's retries over a few seconds.
const retryAfterJitterSecs = 3

// writeFetchError maps a fetch failure to its response. Source-unavailable
// errors become 503 with a Retry-After hint (the breaker's remaining open
// window, or the admission gate's drain estimate) plus bounded random
// jitter; everything else goes through the usual status mapping.
func writeFetchError(w http.ResponseWriter, err error) {
	var retryAfter time.Duration
	var oe *resilience.OpenError
	var ue *resilience.UpstreamError
	var fe *FillSaturatedError
	switch {
	case errors.As(err, &oe):
		retryAfter = oe.RetryAfter
	case errors.As(err, &ue):
		retryAfter = ue.RetryAfter
	case errors.As(err, &fe):
		retryAfter = fe.RetryAfter
	case slurmcli.IsUnavailable(err):
		// Unavailable but not wrapped by the policy layer (e.g. a direct
		// runner call): still a 503, with a nominal retry hint.
	default:
		writeError(w, err)
		return
	}
	secs := int64(retryAfter+time.Second-1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	secs += rand.Int63n(retryAfterJitterSecs + 1)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
}

// writeWidgetJSON writes a widget payload, annotating degraded responses:
// the X-OODDash-Degraded header plus "degraded": true and "age_seconds"
// injected into the JSON object, so both generic HTTP clients and the
// widget frontend can tell stale data from fresh. age_seconds is rounded to
// the nearest second (a 59.9s-old value must not report 59). Non-object
// payloads (arrays) cannot carry the JSON annotation; the header alone
// marks them and the drop is counted, so silently unannotated payloads are
// at least visible on /metrics.
//
// Fresh 200 responses carry an ETag (content hash of the body); a request
// revalidating with a matching If-None-Match gets 304 Not Modified and no
// body. Degraded responses are never conditional — see etag.go.
func (s *Server) writeWidgetJSON(w http.ResponseWriter, r *http.Request, status int, meta fetchMeta, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if !meta.Degraded {
		// Encoder output is Marshal + trailing newline — the exact bytes the
		// rendered layer stores — so the tag hashed here matches the one a
		// later materialized response carries, and client-stored tags stay
		// valid across both paths.
		if err := s.encodePayload(buf, v); err != nil {
			writeError(w, fmt.Errorf("core: encoding response: %v", err))
			return
		}
		body := buf.Bytes()
		if status == http.StatusOK && r != nil {
			tag := etag.For(body)
			setETag(w.Header(), tag)
			if etag.Match(r.Header.Get("If-None-Match"), tag) {
				s.obsm.notModified.With(widgetFromContext(r.Context())).Inc()
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(body)
		return
	}
	w.Header().Set(degradedHeader, "stale")
	if err := s.encodePayload(buf, v); err != nil {
		writeError(w, fmt.Errorf("core: encoding degraded response: %v", err))
		return
	}
	raw := bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})
	ageSecs := int64(math.Round(meta.Age.Seconds()))
	annotated, ok := annotateDegraded(raw, ageSecs)
	if !ok {
		// Non-object payload: serve it unannotated; the header still marks it.
		s.obsm.annotationsDropped.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(annotated)
	w.Write([]byte{'\n'})
}

// annotateDegraded splices `"degraded":true,"age_seconds":N` into the end of
// an encoded JSON object, preserving the original field order and bytes. The
// previous implementation round-tripped the payload through a
// map[string]json.RawMessage, which cost a second Marshal/Unmarshal pair and
// re-sorted every key. Non-object payloads (arrays, scalars) come back
// unchanged with ok=false: there is nowhere to put the annotation.
func annotateDegraded(raw []byte, ageSecs int64) ([]byte, bool) {
	if len(raw) < 2 || raw[0] != '{' || raw[len(raw)-1] != '}' {
		return raw, false
	}
	out := make([]byte, 0, len(raw)+48)
	out = append(out, raw[:len(raw)-1]...)
	if len(raw) > 2 { // non-empty object: separate from the last field
		out = append(out, ',')
	}
	out = append(out, `"degraded":true,"age_seconds":`...)
	out = strconv.AppendInt(out, ageSecs, 10)
	out = append(out, '}')
	return out, true
}

// setDegradedHeader marks non-JSON (CSV/XLSX export) responses that were
// built from stale data.
func setDegradedHeader(w http.ResponseWriter, meta fetchMeta) {
	if meta.Degraded {
		w.Header().Set(degradedHeader, "stale")
	}
}
