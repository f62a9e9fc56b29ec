package core

import (
	"context"
	"log"
	"net/http"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
)

// TimeBucket is one point of the usage time series: jobs and consumption
// that *ended* within the bucket (Slurm usage reports bucket by end time).
type TimeBucket struct {
	Start     time.Time `json:"start"`
	Jobs      int       `json:"jobs"`
	Completed int       `json:"completed"`
	Failed    int       `json:"failed"`
	CPUHours  float64   `json:"cpu_hours"`
	GPUHours  float64   `json:"gpu_hours"`
	WallHours float64   `json:"wall_hours"`
}

// timeBuckets shapes a window's rows into chart points: the jobs and
// consumption that ended in each bucket. Buckets are sparse — only buckets
// with activity appear — and arrive ordered by start time.
func timeBuckets(rows []slurm.RollupRow) []TimeBucket {
	var out []TimeBucket
	for i := range rows {
		row := &rows[i]
		out = append(out, TimeBucket{
			Start:     time.Unix(row.BucketStart, 0).UTC(),
			Jobs:      int(row.Jobs),
			Completed: int(row.Completed),
			Failed:    int(row.Failed),
			CPUHours:  float64(row.CPUSec) / 3600,
			GPUHours:  float64(row.GPUSec) / 3600,
			WallHours: float64(row.WallSec) / 3600,
		})
	}
	return out
}

// TimeseriesResponse is the jobperf chart payload: bucketed usage over the
// selected range, the data behind a Chart.js line/bar chart. Resolution
// names the bucket width actually served (auto selection may differ from
// the request); PartialStart/PartialEnd flag edge buckets that extend past
// the requested window rather than silently scaling them.
type TimeseriesResponse struct {
	User         string       `json:"user"`
	BucketSecs   int64        `json:"bucket_seconds"`
	Resolution   string       `json:"resolution,omitempty"`
	PartialStart bool         `json:"partial_start,omitempty"`
	PartialEnd   bool         `json:"partial_end,omitempty"`
	Buckets      []TimeBucket `json:"buckets"`
}

// handleJobPerfTimeseries serves /api/jobperf/timeseries?range=&bucket=
// (bucket: minute|hour|day; default picks the finest resolution that keeps
// the chart under ~400 points). Scope is the user's own jobs, matching the
// Job Performance Metrics app. The series reads slurmdbd's incremental
// rollups, so cost is O(buckets in the window), not O(jobs in accounting).
func (s *Server) handleJobPerfTimeseries(w http.ResponseWriter, r *http.Request, user *auth.User) {
	q := rollupQuery{scope: slurm.RollupScopeUser, name: user.Name, bucket: r.URL.Query().Get("bucket")}
	s.serveRollup(w, r, user, "7d", q, func(sr *rollupSeries) any {
		return &TimeseriesResponse{
			User: user.Name, BucketSecs: sr.Res, Resolution: resolutionName(sr.Res),
			PartialStart: sr.PartialStart, PartialEnd: sr.PartialEnd,
			Buckets: timeBuckets(sr.Rows),
		}
	})
}

// --- Admin health / observability -------------------------------------------------

// BreakerView is one data source's circuit state in the health payload.
type BreakerView struct {
	Source              string `json:"source"`
	State               string `json:"state"` // "closed", "half-open", "open"
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Attempts            int64  `json:"attempts"`
	Retries             int64  `json:"retries"`
	Successes           int64  `json:"successes"`
	Failures            int64  `json:"failures"`
	ShortCircuits       int64  `json:"short_circuits"`
	Opens               int64  `json:"opens"`
}

// HealthResponse is the admin-only backend observability snapshot: cache
// effectiveness, degraded-mode counters, per-source breaker states, and
// per-daemon RPC counters — the quantities the paper's performance argument
// is about, exposed where operators can watch them.
type HealthResponse struct {
	Time time.Time `json:"time"`

	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	CacheCollapsed   int64   `json:"cache_collapsed"`
	CacheErrors      int64   `json:"cache_errors"`
	CacheEntries     int     `json:"cache_entries"`
	CacheStaleServed int64   `json:"cache_stale_served"`
	CacheBreakerOpen int64   `json:"cache_breaker_open"`

	Breakers []BreakerView `json:"breakers"`

	CtldRPCs map[string]int64 `json:"slurmctld_rpcs,omitempty"`
	DBDRPCs  map[string]int64 `json:"slurmdbd_rpcs,omitempty"`
}

// breakerViews maps the resilience snapshot into the API shape.
func (s *Server) breakerViews() []BreakerView {
	snap := s.res.Snapshot()
	out := make([]BreakerView, 0, len(snap))
	for _, b := range snap {
		out = append(out, BreakerView{
			Source:              b.Source,
			State:               b.State.String(),
			ConsecutiveFailures: b.ConsecutiveFailures,
			Attempts:            b.Attempts,
			Retries:             b.Retries,
			Successes:           b.Successes,
			Failures:            b.Failures,
			ShortCircuits:       b.ShortCircuits,
			Opens:               b.Opens,
		})
	}
	return out
}

func (s *Server) handleAdminHealth(w http.ResponseWriter, r *http.Request, _ *auth.User) {
	st := s.cache.Stats()
	resp := HealthResponse{
		Time:             s.clock.Now(),
		CacheHits:        st.Hits,
		CacheMisses:      st.Misses,
		CacheHitRate:     st.HitRate(),
		CacheCollapsed:   st.Collapsed,
		CacheErrors:      st.Errors,
		CacheEntries:     s.cache.Len(),
		CacheStaleServed: st.StaleServed,
		CacheBreakerOpen: st.BreakerOpen,
		Breakers:         s.breakerViews(),
	}
	// Daemon counters come through the command surface (sdiag), so the
	// health view works against a real cluster too. During an outage sdiag
	// fails like everything else; the health view must still render.
	if ctld, dbd, err := s.ctldBk.Sdiag(context.Background()); err == nil {
		resp.CtldRPCs = ctld.RPCCounts
		resp.DBDRPCs = dbd.RPCCounts
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the backend metrics in Prometheus exposition format,
// so a center's existing monitoring can scrape the dashboard the way it
// scrapes everything else. The whole document renders from the obs registry
// — cache effectiveness, per-widget latency histograms, per-source upstream
// attribution, per-command Slurm cost, breaker states, and the simulator's
// sdiag RPC counters — with exposition-correct label escaping (the old
// hand-rolled %q formatting emitted \u escapes that are invalid in the text
// format). Admin-only, like /api/admin/health.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ *auth.User) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.obsm.reg.WritePrometheus(w); err != nil {
		log.Printf("core: rendering /metrics: %v", err)
	}
}
