package core

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/efficiency/effmath"
	"ooddash/internal/slurm"
)

// The long-range usage widgets: cluster-wide views that only became
// affordable with the rollup pipeline — a year of day buckets costs 365
// rows no matter how many jobs accounting holds. All three serve any
// authenticated user (the series aggregate across users, so per-job privacy
// does not apply) and ride the encode-once rendered cache with a single
// shared variant.

// ClusterUsageResponse is the cluster-wide usage chart: one series of
// bucketed totals, defaulting to the last year at day resolution.
type ClusterUsageResponse struct {
	BucketSecs   int64        `json:"bucket_seconds"`
	Resolution   string       `json:"resolution,omitempty"`
	PartialStart bool         `json:"partial_start,omitempty"`
	PartialEnd   bool         `json:"partial_end,omitempty"`
	Buckets      []TimeBucket `json:"buckets"`
}

// handleUsageCluster serves /api/usage/cluster?range=&bucket= — total
// cluster consumption over time (default range 1y).
func (s *Server) handleUsageCluster(w http.ResponseWriter, r *http.Request, user *auth.User) {
	q := rollupQuery{scope: slurm.RollupScopeTotal, bucket: r.URL.Query().Get("bucket")}
	s.serveRollup(w, r, user, "1y", q, func(sr *rollupSeries) any {
		return &ClusterUsageResponse{
			BucketSecs: sr.Res, Resolution: resolutionName(sr.Res),
			PartialStart: sr.PartialStart, PartialEnd: sr.PartialEnd,
			Buckets: timeBuckets(sr.Rows),
		}
	})
}

// AccountUsage is one account's consumption over the window.
type AccountUsage struct {
	Account   string  `json:"account"`
	Jobs      int64   `json:"jobs"`
	CPUHours  float64 `json:"cpu_hours"`
	GPUHours  float64 `json:"gpu_hours"`
	WallHours float64 `json:"wall_hours"`
}

// TopAccountsResponse ranks accounts by CPU-hours consumed in the window.
type TopAccountsResponse struct {
	RangeStart time.Time      `json:"range_start"`
	RangeEnd   time.Time      `json:"range_end"`
	Resolution string         `json:"resolution,omitempty"`
	Accounts   []AccountUsage `json:"accounts"`
}

// handleUsageAccounts serves /api/usage/accounts?range=&top= — the heaviest
// accounts in the window (default range 90d, top 10), ordered by CPU-hours.
func (s *Server) handleUsageAccounts(w http.ResponseWriter, r *http.Request, user *auth.User) {
	top := 10
	if v := r.URL.Query().Get("top"); v != "" {
		var err error
		if top, err = strconv.Atoi(v); err != nil || top < 1 {
			writeError(w, fmt.Errorf("%w: bad top %q", errBadRequest, v))
			return
		}
	}
	s.serveRollup(w, r, user, "90d", rollupQuery{scope: slurm.RollupScopeAccount}, func(sr *rollupSeries) any {
		byAccount := make(map[string]*AccountUsage)
		for i := range sr.Rows {
			row := &sr.Rows[i]
			a := byAccount[row.Name]
			if a == nil {
				a = &AccountUsage{Account: row.Name}
				byAccount[row.Name] = a
			}
			a.Jobs += row.Jobs
			a.CPUHours += float64(row.CPUSec) / 3600
			a.GPUHours += float64(row.GPUSec) / 3600
			a.WallHours += float64(row.WallSec) / 3600
		}
		ranked := make([]AccountUsage, 0, len(byAccount))
		for _, a := range byAccount {
			ranked = append(ranked, *a)
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].CPUHours != ranked[j].CPUHours {
				return ranked[i].CPUHours > ranked[j].CPUHours
			}
			return ranked[i].Account < ranked[j].Account
		})
		if len(ranked) > top {
			ranked = ranked[:top]
		}
		return &TopAccountsResponse{
			RangeStart: sr.From, RangeEnd: sr.To,
			Resolution: resolutionName(sr.Res), Accounts: ranked,
		}
	})
}

// EfficiencyPoint is one bucket of the cluster efficiency trend. The
// percentages are means over the jobs that ended in the bucket; nil means
// not applicable (no jobs carried that metric).
type EfficiencyPoint struct {
	Start         time.Time `json:"start"`
	Jobs          int64     `json:"jobs"`
	TimePercent   *float64  `json:"time_percent"`
	CPUPercent    *float64  `json:"cpu_percent"`
	MemoryPercent *float64  `json:"memory_percent"`
	GPUPercent    *float64  `json:"gpu_percent"`
}

// EfficiencyTrendResponse is the cluster-wide efficiency-over-time payload.
type EfficiencyTrendResponse struct {
	BucketSecs   int64             `json:"bucket_seconds"`
	Resolution   string            `json:"resolution,omitempty"`
	PartialStart bool              `json:"partial_start,omitempty"`
	PartialEnd   bool              `json:"partial_end,omitempty"`
	Points       []EfficiencyPoint `json:"points"`
}

// handleUsageEfficiency serves /api/usage/efficiency?range=&bucket= — mean
// time/CPU/memory/GPU efficiency per bucket across the whole cluster
// (default range 30d), from the rollup store's exact fixed-point sums.
func (s *Server) handleUsageEfficiency(w http.ResponseWriter, r *http.Request, user *auth.User) {
	q := rollupQuery{scope: slurm.RollupScopeTotal, bucket: r.URL.Query().Get("bucket")}
	s.serveRollup(w, r, user, "30d", q, func(sr *rollupSeries) any {
		resp := &EfficiencyTrendResponse{
			BucketSecs: sr.Res, Resolution: resolutionName(sr.Res),
			PartialStart: sr.PartialStart, PartialEnd: sr.PartialEnd,
		}
		conv := func(sumMicro, n int64) *float64 {
			v := effmath.FromMicro(sumMicro, n)
			if v < 0 {
				return nil
			}
			return &v
		}
		for i := range sr.Rows {
			row := &sr.Rows[i]
			resp.Points = append(resp.Points, EfficiencyPoint{
				Start:         time.Unix(row.BucketStart, 0).UTC(),
				Jobs:          row.Jobs,
				TimePercent:   conv(row.TimeEffMicro, row.TimeEffN),
				CPUPercent:    conv(row.CPUEffMicro, row.CPUEffN),
				MemoryPercent: conv(row.MemEffMicro, row.MemEffN),
				GPUPercent:    conv(row.GPUEffMicro, row.GPUEffN),
			})
		}
		return resp
	})
}
