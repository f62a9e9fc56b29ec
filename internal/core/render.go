package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"ooddash/internal/auth"
	"ooddash/internal/etag"
)

// The rendered-response layer is the serving half of the paper's §2.4
// performance story. The server cache in internal/cache saves the *upstream*
// cost of a widget request (the Slurm command), but the original hit path
// still paid the full *render* cost on every request: rebuild the view model
// from parsed structs, json.Marshal it, and hash an ETag — work that is
// byte-for-byte identical for every request between two cache fills. At
// dashboard scale (ROADMAP north star; EELA's standalone-dashboard
// experience) that render cost dominates.
//
// serveRendered materializes each widget payload once per cache fill: the
// final JSON bytes (trailing newline included) and their strong ETag, as
// one etag.Body, are stored in a second cache keyed by (widget, variant,
// request URI) and guarded by the source data's revision number
// (fetchMeta.rev, from cache.Result.Rev). A hit costs an If-None-Match
// compare → 304, or a single w.Write of the stored bytes. A revision
// mismatch — the source cache refilled — rebuilds and re-stores. Degraded
// responses and uncacheable fetches (rev 0) fall back to the
// encode-per-request path: their bodies change per request (age_seconds) or
// per compute, so there is nothing to materialize.
//
// The variant comes from the widget's visibility class (visibility.go): ""
// for a body every admitted caller shares, the account-set key, or the
// user's name. So one caller's bytes are served only to callers the class
// says see the same body; authorization always runs before serveRendered.

// renderEntry is one render-cache entry: the served body beside the
// fetchMeta.rev it was built from.
type renderEntry struct {
	rev  uint64
	body etag.Body
}

// jsonContentType is the Content-Type header value every JSON response
// shares, assigned directly into the header map: Header.Set allocates a
// fresh one-element slice per call. net/http only reads the slice.
var jsonContentType = []string{"application/json"}

// serveBody writes a rendered widget body through the one conditional
// writer, counting 304s under the widget's name.
func (s *Server) serveBody(w http.ResponseWriter, r *http.Request, b etag.Body) {
	if b.Serve(w, r, jsonContentType) {
		s.obsm.notModified.With(widgetName(r.Context())).Inc()
	}
}

// marshalPayload is the single choke point for payload encoding; every
// json.Marshal of a widget body goes through it, and the counter it bumps
// is what lets the zero-Marshal-on-hit regression test (and /metrics) prove
// the hit path never re-encodes. A body a handler already built as bytes
// (json.RawMessage, the My Jobs table spliced from its stored rows) passes
// through unchanged and counts as one encode.
func (s *Server) marshalPayload(v any) ([]byte, error) {
	s.renderEncodes.Add(1)
	if raw, ok := v.(json.RawMessage); ok {
		return raw, nil
	}
	return json.Marshal(v)
}

// encodePayload is marshalPayload's streaming twin for callers that encode
// into a pooled scratch buffer: same counter, same pass-through, same
// output bytes as Marshal plus the trailing newline writeJSON's Encoder
// always produced.
func (s *Server) encodePayload(buf *bytes.Buffer, v any) error {
	s.renderEncodes.Add(1)
	if raw, ok := v.(json.RawMessage); ok {
		buf.Write(raw)
		return buf.WriteByte('\n')
	}
	return json.NewEncoder(buf).Encode(v)
}

// RenderEncodes reports how many payload encodes (json.Marshal calls on
// widget bodies) the server has performed — the hook the regression test and
// the hot-path benchmark use to assert encode-once behavior.
func (s *Server) RenderEncodes() int64 { return s.renderEncodes.Load() }

// RenderStats reports rendered-response cache traffic: hits served from
// materialized bytes and misses that had to (re)build.
func (s *Server) RenderStats() (hits, misses int64) {
	return s.renderHits.Load(), s.renderMisses.Load()
}

// SetRenderCacheDisabled toggles the rendered-response layer off, forcing
// every request down the encode-per-request path. The hot-path benchmark
// uses it to measure the re-encode baseline on the same process.
func (s *Server) SetRenderCacheDisabled(off bool) { s.renderOff.Store(off) }

// renderKey builds the rendered-cache key: widget, variant, and the full
// request URI (path values and query parameters both shape the body). The
// NUL separators cannot appear in any component, so distinct triples never
// collide.
func renderKey(widget, variant, uri string) string {
	return widget + "\x00" + variant + "\x00" + uri
}

// serveRendered serves a widget payload through the rendered-response cache.
// meta must come from the fetchVia/absorb chain that produced the data;
// user is the caller, whom the widget's class maps to a render variant;
// build constructs the view model (it runs only on a render miss).
//
// Ineligible responses — degraded, uncacheable (rev 0), outside an
// instrumented request, or with the layer toggled off — build and encode
// per request via writeWidgetJSON, exactly as before this layer existed.
func (s *Server) serveRendered(w http.ResponseWriter, r *http.Request, meta fetchMeta, user *auth.User, build func() (any, error)) {
	wd := requestWidget(r.Context())
	var variant string
	if wd != nil {
		variant = wd.shareKey(user, namesViewer(r))
	}
	if wd == nil || meta.Degraded || meta.rev == 0 || meta.ttl <= 0 || s.renderOff.Load() {
		v, err := build()
		if err != nil {
			writeError(w, err)
			return
		}
		s.writeWidgetJSON(w, r, meta, v)
		return
	}
	key := renderKey(wd.Name, variant, r.URL.RequestURI())
	if cached, ok := s.rendered.Get(key); ok {
		if re, ok := cached.(*renderEntry); ok && re.rev == meta.rev {
			s.renderHits.Add(1)
			s.serveBody(w, r, re.body)
			return
		}
	}
	s.renderMisses.Add(1)
	v, err := build()
	if err != nil {
		writeError(w, err)
		return
	}
	raw, err := s.marshalPayload(v)
	if err != nil {
		writeError(w, fmt.Errorf("core: encoding response: %v", err))
		return
	}
	re := &renderEntry{rev: meta.rev, body: etag.New(append(raw, '\n'))}
	// The body stays valid as long as the source entry it was built from, so
	// it shares the source's TTL; a source refill bumps rev and overwrites.
	s.rendered.Set(key, re, meta.ttl)
	s.serveBody(w, r, re.body)
}

// renderCounters groups the rendered-layer atomics embedded in Server.
type renderCounters struct {
	renderHits    atomic.Int64
	renderMisses  atomic.Int64
	renderEncodes atomic.Int64
	renderOff     atomic.Bool
}
