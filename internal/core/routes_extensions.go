package core

// The routes in this file implement the paper's §9 "ongoing and future
// work" items as extensions: real-time job monitoring (a delta event feed
// instead of re-polling squeue), analysis of users' jobs (the insights
// engine), and permission-based accounting (admin-only cluster overview).

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/insights"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// EventSource is the real-time monitoring feed: job state transitions with
// monotonically increasing sequence numbers. The simulated cluster's
// controller implements it; a production deployment would adapt Slurm's
// strigger/jobcomp hooks.
type EventSource interface {
	EventsSince(seq int64, limit int) []slurm.Event
	LastEventSeq() int64
}

// JobEvent is one event on the wire.
type JobEvent struct {
	Seq     int64     `json:"seq"`
	Kind    string    `json:"kind"`
	JobID   string    `json:"job_id"`
	JobName string    `json:"job_name"`
	User    string    `json:"user"`
	State   string    `json:"state"`
	Time    time.Time `json:"time"`
}

// EventsResponse is the delta-poll payload: pass next_seq back as ?since=
// to receive only newer events.
type EventsResponse struct {
	Events  []JobEvent `json:"events"`
	NextSeq int64      `json:"next_seq"`
}

// handleEventsPoll is the legacy delta-poll feed; SSE requests are routed
// to handleEventStream by the handleEvents dispatcher in routes_push.go.
func (s *Server) handleEventsPoll(w http.ResponseWriter, r *http.Request, user *auth.User) {
	if s.events == nil {
		writeError(w, fmt.Errorf("%w: no event source configured", errNotFound))
		return
	}
	var err error
	since := int64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		since, err = strconv.ParseInt(v, 10, 64)
		if err != nil || since < 0 {
			writeError(w, fmt.Errorf("%w: bad since %q", errBadRequest, v))
			return
		}
	}
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit <= 0 || limit > 1000 {
			writeError(w, fmt.Errorf("%w: bad limit %q", errBadRequest, v))
			return
		}
	}
	// tail=1 returns no events, just the current head sequence — clients
	// start a live watch here instead of replaying history.
	if r.URL.Query().Get("tail") == "1" {
		writeJSON(w, http.StatusOK, EventsResponse{NextSeq: s.events.LastEventSeq()})
		return
	}
	// Events are never cached server-side: the whole point of the feed is
	// freshness, and delta polling already keeps each request cheap.
	resp := EventsResponse{NextSeq: since}
	for _, e := range s.events.EventsSince(since, 0) {
		// Privacy scope matches My Jobs: own and group jobs only.
		if !user.Admin && e.User != user.Name && !user.MemberOf(e.Account) {
			resp.NextSeq = e.Seq
			continue
		}
		resp.Events = append(resp.Events, JobEvent{
			Seq: e.Seq, Kind: string(e.Kind),
			JobID:   strconv.FormatInt(int64(e.JobID), 10),
			JobName: e.JobName, User: e.User,
			State: string(e.State), Time: e.Time,
		})
		resp.NextSeq = e.Seq
		if len(resp.Events) == limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- Insights (analysis of users' jobs) ----------------------------------------

// InsightsResponse carries the analyzer's findings for the user. Range is
// the canonical range name (the default spelled out), and RangeEnd the
// instant the analyzed window ends at: the fill's as-of instant for a
// named range.
type InsightsResponse struct {
	User     string             `json:"user"`
	Range    string             `json:"range"`
	RangeEnd time.Time          `json:"range_end"`
	Findings []insights.Finding `json:"findings"`
	JobCount int                `json:"job_count"`
}

func (s *Server) handleInsights(w http.ResponseWriter, r *http.Request, user *auth.User) {
	tr, err := parseTimeRange(r)
	if err != nil {
		writeError(w, err)
		return
	}
	// Keyed by user and range, not by instant: the window is computed at
	// fill time, so views within a TTL share the fill and an outage finds
	// the last value.
	key := "insights:" + user.Name + ":" + tr.key()
	v, meta, err := s.fetchVia(r, srcDBD, key, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
		start, end := tr.window(s.historyAsOf())
		rows, err := s.dbdBk.Sacct(ctx, slurmcli.SacctOptions{
			User: user.Name, Start: start, End: end,
		})
		if err != nil {
			return nil, err
		}
		return &InsightsResponse{
			User:     user.Name,
			Range:    tr.name,
			RangeEnd: end,
			Findings: insights.Analyze(rows, insights.DefaultConfig()),
			JobCount: len(rows),
		}, nil
	})
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, user, func() (any, error) {
		return v.(*InsightsResponse), nil
	})
}

// --- Admin overview (permission-based accounting) --------------------------------

// AdminUserRow is one user's cluster-wide consumption in the admin view.
type AdminUserRow struct {
	User       string  `json:"user"`
	Jobs       int     `json:"jobs"`
	CPUHours   float64 `json:"cpu_hours"`
	GPUHours   float64 `json:"gpu_hours"`
	FailedJobs int     `json:"failed_jobs"`
	AvgCPUEff  float64 `json:"avg_cpu_eff"`
}

// AdminOverviewResponse is the admin-only cluster accounting summary.
type AdminOverviewResponse struct {
	RangeEnd      time.Time      `json:"range_end"`
	TotalJobs     int            `json:"total_jobs"`
	TotalCPUHours float64        `json:"total_cpu_hours"`
	TotalGPUHours float64        `json:"total_gpu_hours"`
	StateCounts   map[string]int `json:"state_counts"`
	TopUsers      []AdminUserRow `json:"top_users"`
}

func (s *Server) handleAdminOverview(w http.ResponseWriter, r *http.Request, user *auth.User) {
	tr, err := parseTimeRange(r)
	if err != nil {
		writeError(w, err)
		return
	}
	// One cluster-wide fill per range per TTL, shared by every admin; the
	// window ends at the fill's as-of instant (see handleInsights).
	key := "admin_overview:" + tr.key()
	v, meta, err := s.fetchVia(r, srcDBD, key, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
		start, end := tr.window(s.historyAsOf())
		rows, err := s.dbdBk.Sacct(ctx, slurmcli.SacctOptions{
			AllUsers: true, Start: start, End: end,
		})
		if err != nil {
			return nil, err
		}
		return buildAdminOverview(rows, end), nil
	})
	if err != nil {
		writeFetchError(w, err)
		return
	}
	// Staff-gated by the widget's class; one body serves every admin.
	s.serveRendered(w, r, meta, user, func() (any, error) {
		return v.(*AdminOverviewResponse), nil
	})
}

func buildAdminOverview(rows []slurmcli.SacctRow, end time.Time) *AdminOverviewResponse {
	resp := &AdminOverviewResponse{
		RangeEnd:    end,
		StateCounts: make(map[string]int),
	}
	type acc struct {
		AdminUserRow
		effSum float64
		effN   int
	}
	perUser := make(map[string]*acc)
	for i := range rows {
		row := &rows[i]
		resp.TotalJobs++
		resp.StateCounts[string(row.State)]++
		resp.TotalCPUHours += row.TotalCPU.Hours()
		resp.TotalGPUHours += row.GPUHours()

		a := perUser[row.User]
		if a == nil {
			a = &acc{AdminUserRow: AdminUserRow{User: row.User}}
			perUser[row.User] = a
		}
		a.Jobs++
		a.CPUHours += row.TotalCPU.Hours()
		a.GPUHours += row.GPUHours()
		if row.State == slurm.StateFailed {
			a.FailedJobs++
		}
		if row.AllocCPUs > 0 && row.Elapsed > 0 {
			a.effSum += 100 * float64(row.TotalCPU) / (float64(row.Elapsed) * float64(row.AllocCPUs))
			a.effN++
		}
	}
	for _, a := range perUser {
		if a.effN > 0 {
			a.AvgCPUEff = a.effSum / float64(a.effN)
		}
		resp.TopUsers = append(resp.TopUsers, a.AdminUserRow)
	}
	sort.Slice(resp.TopUsers, func(i, j int) bool {
		if resp.TopUsers[i].CPUHours != resp.TopUsers[j].CPUHours {
			return resp.TopUsers[i].CPUHours > resp.TopUsers[j].CPUHours
		}
		return resp.TopUsers[i].User < resp.TopUsers[j].User
	})
	if len(resp.TopUsers) > 20 {
		resp.TopUsers = resp.TopUsers[:20]
	}
	return resp
}
