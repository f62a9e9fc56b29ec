package core

import (
	"net/http"

	"ooddash/internal/auth"
)

// handleAdminSLO serves the live SLO view: every objective's 28-day error
// budget (spent/remaining/exhaustion ETA), its alert rules' states and
// current burn rates, and the recent alert transition log. Staff only,
// like /metrics and /api/admin/health. The snapshot is self-evaluating —
// reading it advances the alert state machines to the current clock, so a
// wall-clock deployment needs no background ticker for alert freshness.
func (s *Server) handleAdminSLO(w http.ResponseWriter, r *http.Request, _ *auth.User) {
	writeJSON(w, http.StatusOK, s.sloEng.Status())
}
