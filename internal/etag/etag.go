// Package etag is the dashboard's one form of a rendered response: a Body
// holds the bytes exactly as served together with their strong entity tag,
// and Body.Serve is the one conditional writer — set ETag, answer a
// matching If-None-Match with 304, else write the bytes. The widget routes
// (internal/core), the push hub and fleet propagation (internal/push,
// internal/fleet) and the Slurm REST surface (internal/slurmrest) all carry
// and serve Bodies. Tags are FNV-64a content hashes of the exact body, so
// equal bytes always revalidate and any byte change invalidates.
package etag

import (
	"net/http"
	"strings"
)

const hexDigits = "0123456789abcdef"

// headerKey is the ETag header name in the pre-canonicalized MIME form
// net/textproto produces. Setting it by direct map assignment skips the
// per-call canonicalization pass ("ETag" is not canonical, so Header.Set
// allocates a rewritten key every time); the wire bytes are identical.
const headerKey = "Etag"

// Body is one rendered response: the bytes exactly as written to the wire
// (a widget body's trailing newline included) and their strong tag,
// hashed once when the body is built. Bodies are immutable once built, so
// one may be stored in a cache, held by a push hub and handed to every
// fleet replica without copying.
type Body struct {
	Bytes []byte
	Tag   string   // For(Bytes)
	tagHV []string // Tag as a ready header value for direct map assignment
}

// New wraps b, hashing it once.
func New(b []byte) Body {
	tag := For(b)
	return Body{Bytes: b, Tag: tag, tagHV: []string{tag}}
}

// Served returns the Body for bytes b that a handler wrote with header h.
// A response written through Serve already carries the tag of exactly
// these bytes, so it is reused; one written without an ETag (a degraded
// response) is hashed here.
func Served(h http.Header, b []byte) Body {
	if hv := h[headerKey]; len(hv) == 1 {
		return Body{Bytes: b, Tag: hv[0], tagHV: hv}
	}
	return New(b)
}

// Serve writes b as the response to r: the ETag header, then 304 Not
// Modified when r's If-None-Match matches, otherwise contentType and the
// bytes with status 200. contentType is set on the 200 only; a caller that
// wants it on the 304 too sets it first. Serve reports whether it answered
// 304. It allocates nothing.
func (b Body) Serve(w http.ResponseWriter, r *http.Request, contentType []string) (notModified bool) {
	h := w.Header()
	h[headerKey] = b.tagHV
	if match(r.Header.Get("If-None-Match"), b.Tag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	h["Content-Type"] = contentType
	w.WriteHeader(http.StatusOK)
	w.Write(b.Bytes)
	return false
}

// For returns the strong entity tag for a response body: an FNV-64a
// content hash as 16 zero-padded hex digits in quotes. The hash loop is
// inlined and the tag built directly into a fixed buffer — a
// fmt.Sprintf("%q", fmt.Sprintf("%016x", ...)) pair allocates three
// strings per tag on a path that runs for every fresh 200; this
// allocates one.
func For(body []byte) string {
	h := uint64(14695981039346656037)
	for _, b := range body {
		h = (h ^ uint64(b)) * 1099511628211
	}
	var buf [18]byte
	buf[0], buf[17] = '"', '"'
	for i := 16; i >= 1; i-- {
		buf[i] = hexDigits[h&0xf]
		h >>= 4
	}
	return string(buf[:])
}

// match implements If-None-Match: a comma-separated candidate list or
// "*", with weak-comparison semantics (a W/ prefix is ignored, per RFC
// 9110 §13.1.2 — If-None-Match uses weak comparison).
func match(header, tag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	// Walk the candidate list in place; Split would allocate the slice on
	// every revalidation (the single-tag common case included).
	for len(header) > 0 {
		cand := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			cand, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/")
		if cand == tag {
			return true
		}
	}
	return false
}
