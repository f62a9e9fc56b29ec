package core

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/trace"
)

// TraceListResponse is the admin trace-store listing: retained summaries
// (newest first) plus the store's retention accounting, so an operator can
// see at a glance how much the tail sampler is keeping and why.
type TraceListResponse struct {
	Traces        []trace.Summary `json:"traces"`
	Retained      int             `json:"retained"`
	Capacity      int             `json:"capacity"`
	RetainedBytes int64           `json:"retained_bytes"`
	Decisions     trace.Decisions `json:"decisions"`
}

// handleAdminTraces serves GET /api/admin/traces — the staff entry point into
// the tail-sampled trace store. Filters: ?widget=, ?min_ms= (minimum duration),
// ?degraded=1 (error/degraded only), ?limit=. Never cached (TTL 0 in the
// widget table) and excluded from the instrument middleware's own tracing —
// observing the observer must not perturb or recurse into it.
func (s *Server) handleAdminTraces(w http.ResponseWriter, r *http.Request, _ *auth.User) {
	q := r.URL.Query()
	f := trace.Filter{Widget: q.Get("widget")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, fmt.Errorf("%w: bad min_ms %q", errBadRequest, v))
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("degraded"); v == "1" || v == "true" {
		f.DegradedOnly = true
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > 1000 {
			writeError(w, fmt.Errorf("%w: bad limit %q", errBadRequest, v))
			return
		}
		f.Limit = n
	}
	st := s.tracer.Store()
	writeJSON(w, http.StatusOK, TraceListResponse{
		Traces:        st.List(f),
		Retained:      st.Len(),
		Capacity:      st.Max(),
		RetainedBytes: st.RetainedBytes(),
		Decisions:     st.Snapshot(),
	})
}

// handleAdminTrace serves GET /api/admin/traces/{id} — one retained trace as
// a span tree with microsecond offsets, the payload behind the waterfall view.
func (s *Server) handleAdminTrace(w http.ResponseWriter, r *http.Request, _ *auth.User) {
	id := r.PathValue("id")
	tr, ok := s.tracer.Store().Get(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: no retained trace %s", errNotFound, id))
		return
	}
	writeJSON(w, http.StatusOK, tr.Export())
}
