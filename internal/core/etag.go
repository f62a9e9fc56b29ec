package core

import (
	"net/http"

	"ooddash/internal/auth"
)

// Widget routes answer conditional polling requests with 304 Not Modified:
// the ETag is a content hash of the exact JSON body, so a client (the
// browser model, or any generic HTTP cache) revalidating an unchanged
// payload costs headers instead of a body. Degraded responses carry no
// ETag — their age_seconds annotation changes every second, and a client
// should not cache a stale fallback as if it were current.
//
// Every fresh widget response — a render hit or the encode-per-request
// fallback — is an etag.Body written by its one conditional writer, so
// both share the Slurm REST surface's (internal/slurmrest) exact
// semantics.

// Per-user responses carry strong ETags, so without cache-scoping headers
// a shared intermediary cache (a fronting proxy keyed only on the URL)
// could store user A's body — or validate A's ETag with a 304 — and hand
// it to user B, violating the §2.4 privacy model. Every response of a
// widget outside the public visibility class, and every HTML page,
// therefore declares (visibility.go, renderPage):
//
//   - Vary: X-Remote-User — the response depends on the identity header,
//     so a cache that stores it must key on that header too;
//   - Cache-Control: private — only the end client's own cache may store
//     it at all, for caches that don't implement Vary faithfully.
//
// "private" rather than "no-store" deliberately: the browser keeping its
// own copy is exactly what makes the If-None-Match/304 hot path work, and
// no-store would disable client revalidation for zero privacy gain (the
// client is the user the payload belongs to).
//
// "Vary" and "Cache-Control" are already in canonical MIME form, and the
// values are shared package-level slices, so the direct map assignments
// below add zero allocations to the rendered hit path (net/http only
// reads the slices).
const (
	varyHeaderKey         = "Vary"
	cacheControlHeaderKey = "Cache-Control"
)

var (
	varyUserValue     = []string{auth.UserHeader}
	cachePrivateValue = []string{"private"}
)

// setPrivateCache marks a response as per-identity for any cache in front
// of the dashboard.
func setPrivateCache(h http.Header) {
	h[varyHeaderKey] = varyUserValue
	h[cacheControlHeaderKey] = cachePrivateValue
}
