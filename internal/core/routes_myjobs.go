package core

import (
	"context"
	"encoding/csv"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/efficiency"
	"ooddash/internal/efficiency/effmath"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// explainReason adapts the efficiency package's reason table for routes.
func explainReason(r slurm.PendingReason) (string, bool) {
	if r == slurm.ReasonNone || r == "" {
		return "", false
	}
	return efficiency.ExplainReason(r)
}

// namedRanges are the range= values shared by My Jobs, Job Performance
// Metrics and the usage widgets (§5: last 24 hours through all time), each
// with how far it reaches back from the instant it is evaluated at; 0 is
// all time.
var namedRanges = map[string]time.Duration{
	"24h": 24 * time.Hour,
	"7d":  7 * 24 * time.Hour,
	"30d": 30 * 24 * time.Hour,
	"90d": 90 * 24 * time.Hour,
	"1y":  365 * 24 * time.Hour,
	"all": 0,
}

// timeRange is a parsed range/from/to query. A named range carries no
// instant: it is evaluated against one (window), so a cached fill can keep
// the instant it was taken at. A custom range has fixed bounds.
type timeRange struct {
	name     string    // a namedRanges key, or "custom"
	from, to time.Time // custom only, whole seconds
}

// window returns the range's [start, end] as of asOf; a zero start means
// all time.
func (tr timeRange) window(asOf time.Time) (start, end time.Time) {
	if tr.name == "custom" {
		return tr.from, tr.to
	}
	if span := namedRanges[tr.name]; span > 0 {
		start = asOf.Add(-span)
	}
	return start, asOf
}

// key names the range in a cache key without any instant: the range name,
// or a custom range's exact bounds.
func (tr timeRange) key() string {
	if tr.name != "custom" {
		return tr.name
	}
	return "custom:" + strconv.FormatInt(tr.from.Unix(), 10) + ":" + strconv.FormatInt(tr.to.Unix(), 10)
}

// fillClass is the range a history fill fetches to serve tr: named ranges
// up to 30 days (24h, 7d, 30d) derive their rows from the 30d fill; every
// other range is its own class.
func (tr timeRange) fillClass() timeRange {
	if span := namedRanges[tr.name]; span > 0 && span <= namedRanges["30d"] {
		return timeRange{name: "30d"}
	}
	return tr
}

// parseTimeRange interprets the range/from/to query parameters shared by
// My Jobs and Job Performance Metrics; the default range is 7d.
func parseTimeRange(r *http.Request) (timeRange, error) {
	return parseTimeRangeDefault(r, "7d")
}

// parseTimeRangeDefault is parseTimeRange with a caller-chosen default
// range, for the long-horizon usage widgets that default to a year. Custom
// bounds are truncated to whole seconds, the precision of both backends'
// time filters. An empty custom window (ending on or before it starts) is
// rejected: every range here is half-open, so such a window can only ever
// be empty.
func parseTimeRangeDefault(r *http.Request, def string) (timeRange, error) {
	q := r.URL.Query()
	tr := timeRange{name: q.Get("range")}
	if tr.name == "" {
		tr.name = def
	}
	if _, ok := namedRanges[tr.name]; ok {
		return tr, nil
	}
	if tr.name != "custom" {
		return tr, fmt.Errorf("%w: unknown range %q", errBadRequest, tr.name)
	}
	from, to := q.Get("from"), q.Get("to")
	start, err := time.Parse(time.RFC3339, from)
	if err != nil {
		return tr, fmt.Errorf("%w: bad from %q", errBadRequest, from)
	}
	end, err := time.Parse(time.RFC3339, to)
	if err != nil {
		return tr, fmt.Errorf("%w: bad to %q", errBadRequest, to)
	}
	tr.from, tr.to = start.Truncate(time.Second), end.Truncate(time.Second)
	if !tr.to.After(tr.from) {
		return tr, fmt.Errorf("%w: range ends on or before it starts", errBadRequest)
	}
	return tr, nil
}

// historyAsOf reads the instant a history fill is taken at, truncated to
// the second that both backends' time filters carry, so a window derived
// from the fill has the bounds of a direct query.
func (s *Server) historyAsOf() time.Time {
	return s.clock.Now().Truncate(time.Second)
}

// EfficiencyView is the toggleable efficiency column triple (§4.3). Nil
// percentages mean not applicable (job has not run).
type EfficiencyView struct {
	TimePercent   *float64 `json:"time_percent"`
	CPUPercent    *float64 `json:"cpu_percent"`
	MemoryPercent *float64 `json:"memory_percent"`
	// GPUPercent carries the §9 GPU-utilization extension; null for
	// CPU-only jobs.
	GPUPercent *float64 `json:"gpu_percent"`
}

func efficiencyView(m efficiency.Metrics) EfficiencyView {
	conv := func(v float64) *float64 {
		if v < 0 {
			return nil
		}
		return &v
	}
	return EfficiencyView{
		TimePercent:   conv(m.TimePercent),
		CPUPercent:    conv(m.CPUPercent),
		MemoryPercent: conv(m.MemoryPercent),
		GPUPercent:    conv(m.GPUPercent),
	}
}

// JobRow is one row of the My Jobs table (§4.1), expanded form included.
type JobRow struct {
	JobID     string `json:"job_id"`
	Name      string `json:"name"`
	User      string `json:"user"`
	Account   string `json:"account"`
	Partition string `json:"partition"`
	QOS       string `json:"qos"`
	State     string `json:"state"`
	Reason    string `json:"reason,omitempty"`
	// ReasonHelp is the friendly explanation of the pending reason.
	ReasonHelp string `json:"reason_help,omitempty"`

	SubmitTime time.Time `json:"submit_time"`
	StartTime  time.Time `json:"start_time,omitempty"`
	EndTime    time.Time `json:"end_time,omitempty"`
	// WaitSeconds is the queue wait; ElapsedSeconds the wall time so far.
	WaitSeconds      int64 `json:"wait_seconds"`
	ElapsedSeconds   int64 `json:"elapsed_seconds"`
	TimeLimitSeconds int64 `json:"time_limit_seconds"`

	// Expanded-view details.
	ReqCPUs   int     `json:"req_cpus"`
	AllocCPUs int     `json:"alloc_cpus"`
	ReqMemMB  int64   `json:"req_mem_mb"`
	GPUs      int     `json:"gpus"`
	GPUHours  float64 `json:"gpu_hours"`
	NodeList  string  `json:"node_list,omitempty"`
	ExitCode  int     `json:"exit_code"`
	WorkDir   string  `json:"work_dir,omitempty"`

	Efficiency EfficiencyView `json:"efficiency"`
	Warnings   []string       `json:"warnings,omitempty"`

	IsArrayTask bool   `json:"is_array_task,omitempty"`
	App         string `json:"app,omitempty"`
	SessionID   string `json:"session_id,omitempty"`
	OverviewURL string `json:"overview_url"`
}

// MyJobsResponse is the My Jobs API payload.
type MyJobsResponse struct {
	Jobs []JobRow `json:"jobs"`
	// Total is the row count before any filtering, for the charts.
	Total int `json:"total"`
	// Matched is the post-filter count before pagination; Offset echoes the
	// requested page start so the table can render pager controls.
	Matched int `json:"matched"`
	Offset  int `json:"offset"`
}

// jobRowFromSacct converts an accounting row to the API row shape.
func jobRowFromSacct(row *slurmcli.SacctRow, now time.Time, th efficiency.Thresholds) JobRow {
	jr := JobRow{
		JobID:     row.JobID,
		Name:      row.Name,
		User:      row.User,
		Account:   row.Account,
		Partition: row.Partition,
		QOS:       row.QOS,
		State:     string(row.State),

		SubmitTime:       row.SubmitTime,
		StartTime:        row.StartTime,
		EndTime:          row.EndTime,
		ElapsedSeconds:   int64(row.Elapsed / time.Second),
		TimeLimitSeconds: int64(row.TimeLimit / time.Second),

		ReqCPUs:   row.ReqCPUs,
		AllocCPUs: row.AllocCPUs,
		ReqMemMB:  row.ReqMemMB,
		GPUs:      row.AllocTRES.GPUs,
		GPUHours:  row.GPUHours(),
		NodeList:  row.NodeList,
		ExitCode:  row.ExitCode,
		WorkDir:   row.WorkDir,

		IsArrayTask: row.IsArrayTask(),
		OverviewURL: "/job/" + row.JobID,
	}
	if row.NodeList == "None assigned" {
		jr.NodeList = ""
	}
	if row.State == slurm.StatePending {
		jr.Reason = string(row.Reason)
		if msg, ok := explainReason(row.Reason); ok {
			jr.ReasonHelp = msg
		}
		jr.WaitSeconds = int64(now.Sub(row.SubmitTime) / time.Second)
	} else if !row.StartTime.IsZero() {
		jr.WaitSeconds = int64(row.StartTime.Sub(row.SubmitTime) / time.Second)
	}
	jr.Efficiency = efficiencyView(efficiency.Compute(row))
	for _, warning := range efficiency.Warnings(row, th) {
		jr.Warnings = append(jr.Warnings, warning.Message)
	}
	if app, sess, ok := row.SessionInfo(); ok {
		jr.App, jr.SessionID = app, sess
	}
	return jr
}

// jobHistory is one history fill: the converted rows of an account set's
// jobs over a fill class window ending at asOf, newest submission first.
// Handlers only read it; each range derives its rows with a jobFilter.
type jobHistory struct {
	asOf time.Time
	rows []JobRow
}

// fetchJobHistory returns the history fill that serves tr for user: the
// jobs of their accounts (their own jobs plus their groups', §2.4 Privacy)
// over tr's fill class. The key names what the caller may see and the
// class, never an instant, so every member of the same groups shares one
// sacct per class per TTL, and a stale value stays findable while slurmdbd
// is down. auth.Directory keeps each user's accounts sorted, so the joined
// list names the set in whatever order it was registered. A user in no
// account sees only their own jobs, under a key that names them: sacct -a
// without -A would list the whole cluster. The cache holds fully converted
// rows: efficiency metrics and warning strings are the expensive part of
// this route.
func (s *Server) fetchJobHistory(r *http.Request, user *auth.User, tr timeRange) (*jobHistory, fetchMeta, error) {
	class := tr.fillClass()
	opts := slurmcli.SacctOptions{Accounts: user.Accounts, AllUsers: true}
	key := "myjobs:" + strings.Join(user.Accounts, ",") + ":" + class.key()
	if len(user.Accounts) == 0 {
		opts = slurmcli.SacctOptions{User: user.Name}
		key = "myjobs-user:" + user.Name + ":" + class.key()
	}
	v, meta, err := s.fetchVia(r, srcDBD, key, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
		asOf := s.historyAsOf()
		o := opts
		o.Start, o.End = class.window(asOf)
		rows, err := s.dbdBk.Sacct(ctx, o)
		if err != nil {
			return nil, err
		}
		th := efficiency.DefaultThresholds()
		converted := make([]JobRow, len(rows))
		for i := range rows {
			converted[i] = jobRowFromSacct(&rows[i], asOf, th)
		}
		// Newest submissions first, the table's default sort.
		sort.SliceStable(converted, func(i, j int) bool {
			return converted[i].SubmitTime.After(converted[j].SubmitTime)
		})
		return &jobHistory{asOf: asOf, rows: converted}, nil
	})
	if err != nil {
		return nil, fetchMeta{}, err
	}
	return v.(*jobHistory), meta, nil
}

// jobFilter is the one row filter of the My Jobs table, its export and its
// charts. since is the window part: sacct keeps a job whose [submit, end or
// now] overlaps the window, and every row of a fill was submitted by its
// asOf, so a range derives its rows from a longer fill by dropping only the
// jobs that ended before the range's start. The other fields mirror the
// table's controls; the charts use the window part alone.
type jobFilter struct {
	since                time.Time // zero: all time
	state, user, account string
	mine                 string // the viewer's name when mine=1
}

// newJobFilter builds the filter for tr over the fill h from the query's
// filters.
func newJobFilter(q url.Values, h *jobHistory, tr timeRange, viewer string) jobFilter {
	f := jobFilter{
		state:   strings.ToUpper(q.Get("state")),
		user:    q.Get("user"),
		account: q.Get("account"),
	}
	f.since, _ = tr.window(h.asOf)
	if q.Get("mine") == "1" {
		f.mine = viewer
	}
	return f
}

// inWindow reports whether the row belongs to the filter's range.
func (f *jobFilter) inWindow(row *JobRow) bool {
	return f.since.IsZero() || row.EndTime.IsZero() || !row.EndTime.Before(f.since)
}

// matches reports whether the row passes the query filters.
func (f *jobFilter) matches(row *JobRow) bool {
	return (f.mine == "" || row.User == f.mine) &&
		(f.user == "" || row.User == f.user) &&
		(f.account == "" || row.Account == f.account) &&
		(f.state == "" || row.State == f.state)
}

// loadJobHistory is the shared head of the My Jobs routes: the viewer, the
// parsed range and the fill serving it. It writes the error response and
// returns ok=false on failure.
func (s *Server) loadJobHistory(w http.ResponseWriter, r *http.Request) (user *auth.User, tr timeRange, h *jobHistory, meta fetchMeta, ok bool) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if tr, err = parseTimeRange(r); err != nil {
		writeError(w, err)
		return
	}
	if h, meta, err = s.fetchJobHistory(r, user, tr); err != nil {
		writeFetchError(w, err)
		return
	}
	return user, tr, h, meta, true
}

func (s *Server) handleMyJobs(w http.ResponseWriter, r *http.Request) {
	user, tr, h, meta, ok := s.loadJobHistory(w, r)
	if !ok {
		return
	}
	s.serveRendered(w, r, meta, user.Name, func() (any, error) {
		q := r.URL.Query()
		f := newJobFilter(q, h, tr, user.Name)
		var resp MyJobsResponse
		for i := range h.rows {
			row := &h.rows[i]
			if !f.inWindow(row) {
				continue
			}
			resp.Total++
			if f.matches(row) {
				resp.Jobs = append(resp.Jobs, *row)
			}
		}
		resp.Matched = len(resp.Jobs)

		// Pagination: DataTables-style limit/offset keeps large histories from
		// shipping megabytes per request.
		offset, limit := 0, 0
		var err error
		if v := q.Get("offset"); v != "" {
			offset, err = strconv.Atoi(v)
			if err != nil || offset < 0 {
				return nil, fmt.Errorf("%w: bad offset %q", errBadRequest, v)
			}
		}
		if v := q.Get("limit"); v != "" {
			limit, err = strconv.Atoi(v)
			if err != nil || limit <= 0 {
				return nil, fmt.Errorf("%w: bad limit %q", errBadRequest, v)
			}
		}
		if offset > len(resp.Jobs) {
			offset = len(resp.Jobs)
		}
		resp.Offset = offset
		resp.Jobs = resp.Jobs[offset:]
		if limit > 0 && len(resp.Jobs) > limit {
			resp.Jobs = resp.Jobs[:limit]
		}
		return resp, nil
	})
}

// handleMyJobsExport streams the (filtered) My Jobs table as CSV — the
// DataTables-style export next to the §3.4 account export, with the same
// scope and filters as the JSON route.
func (s *Server) handleMyJobsExport(w http.ResponseWriter, r *http.Request) {
	user, tr, h, meta, ok := s.loadJobHistory(w, r)
	if !ok {
		return
	}
	f := newJobFilter(r.URL.Query(), h, tr, user.Name)

	setDegradedHeader(w, meta)
	setPrivateCache(w.Header())
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-jobs-%s.csv", s.cfg.ClusterName, user.Name))
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"job_id", "name", "user", "account", "partition", "qos",
		"state", "submit", "start", "end", "wait_seconds", "elapsed_seconds",
		"req_cpus", "req_mem_mb", "gpus", "gpu_hours",
		"time_eff_pct", "cpu_eff_pct", "mem_eff_pct", "exit_code"})
	fmtTime := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339)
	}
	fmtEff := func(v *float64) string {
		if v == nil {
			return ""
		}
		return strconv.FormatFloat(*v, 'f', 1, 64)
	}
	for i := range h.rows {
		row := &h.rows[i]
		if !f.inWindow(row) || !f.matches(row) {
			continue
		}
		_ = cw.Write([]string{
			row.JobID, row.Name, row.User, row.Account, row.Partition, row.QOS,
			row.State, fmtTime(row.SubmitTime), fmtTime(row.StartTime), fmtTime(row.EndTime),
			strconv.FormatInt(row.WaitSeconds, 10),
			strconv.FormatInt(row.ElapsedSeconds, 10),
			strconv.Itoa(row.ReqCPUs),
			strconv.FormatInt(row.ReqMemMB, 10),
			strconv.Itoa(row.GPUs),
			strconv.FormatFloat(row.GPUHours, 'f', 2, 64),
			fmtEff(row.Efficiency.TimePercent),
			fmtEff(row.Efficiency.CPUPercent),
			fmtEff(row.Efficiency.MemoryPercent),
			strconv.Itoa(row.ExitCode),
		})
	}
	cw.Flush()
}

// --- My Jobs charts (§4.2) --------------------------------------------------

// UserStateBar is one stacked bar of the job-state distribution chart:
// a user's job counts by state.
type UserStateBar struct {
	User   string         `json:"user"`
	Total  int            `json:"total"`
	States map[string]int `json:"states"`
}

// UserGPUHours is one bar of the GPU-hour distribution chart.
type UserGPUHours struct {
	User     string  `json:"user"`
	GPUHours float64 `json:"gpu_hours"`
}

// ChartsResponse is the My Jobs charts API payload.
type ChartsResponse struct {
	StateDistribution []UserStateBar `json:"state_distribution"`
	GPUHours          []UserGPUHours `json:"gpu_hours"`
}

func (s *Server) handleMyJobsCharts(w http.ResponseWriter, r *http.Request) {
	user, tr, h, meta, ok := s.loadJobHistory(w, r)
	if !ok {
		return
	}
	s.serveRendered(w, r, meta, user.Name, func() (any, error) {
		since, _ := tr.window(h.asOf)
		f := jobFilter{since: since}
		states := make(map[string]*UserStateBar)
		gpu := make(map[string]float64)
		for i := range h.rows {
			row := &h.rows[i]
			if !f.inWindow(row) {
				continue
			}
			bar := states[row.User]
			if bar == nil {
				bar = &UserStateBar{User: row.User, States: make(map[string]int)}
				states[row.User] = bar
			}
			bar.States[row.State]++
			bar.Total++
			gpu[row.User] += row.GPUHours
		}
		resp := ChartsResponse{}
		for _, bar := range states {
			resp.StateDistribution = append(resp.StateDistribution, *bar)
		}
		sort.Slice(resp.StateDistribution, func(i, j int) bool {
			if resp.StateDistribution[i].Total != resp.StateDistribution[j].Total {
				return resp.StateDistribution[i].Total > resp.StateDistribution[j].Total
			}
			return resp.StateDistribution[i].User < resp.StateDistribution[j].User
		})
		for u, hours := range gpu {
			if hours > 0 {
				resp.GPUHours = append(resp.GPUHours, UserGPUHours{User: u, GPUHours: hours})
			}
		}
		sort.Slice(resp.GPUHours, func(i, j int) bool {
			if resp.GPUHours[i].GPUHours != resp.GPUHours[j].GPUHours {
				return resp.GPUHours[i].GPUHours > resp.GPUHours[j].GPUHours
			}
			return resp.GPUHours[i].User < resp.GPUHours[j].User
		})
		return resp, nil
	})
}

// --- Job Performance Metrics (§5) --------------------------------------------

// JobPerfResponse is the aggregate metrics payload: the summary cards of
// the Job Performance Metrics app.
type JobPerfResponse struct {
	RangeStart time.Time `json:"range_start,omitempty"`
	RangeEnd   time.Time `json:"range_end"`

	TotalJobs        int     `json:"total_jobs"`
	CompletedJobs    int     `json:"completed_jobs"`
	FailedJobs       int     `json:"failed_jobs"`
	AvgWaitSeconds   float64 `json:"avg_wait_seconds"`
	MeanDurationSecs float64 `json:"mean_duration_seconds"`
	TotalWallSeconds int64   `json:"total_wall_seconds"`
	TotalCPUHours    float64 `json:"total_cpu_hours"`
	TotalGPUHours    float64 `json:"total_gpu_hours"`

	AvgTimeEfficiency   float64 `json:"avg_time_efficiency"`
	AvgCPUEfficiency    float64 `json:"avg_cpu_efficiency"`
	AvgMemoryEfficiency float64 `json:"avg_memory_efficiency"`
}

func (s *Server) handleJobPerf(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	tr, err := parseTimeRange(r)
	if err != nil {
		writeError(w, err)
		return
	}
	start, end := tr.window(s.clock.Now())
	// Job Performance Metrics covers the user's own terminal jobs, summed
	// from the rollup pipeline over the bucket-aligned window. Queued and
	// running work has no end time yet and so no bucket; the queue views
	// cover it.
	if start.IsZero() {
		minEnd, _, ok, berr := s.rollupBounds(r, slurm.RollupScopeUser, user.Name)
		if berr != nil {
			writeFetchError(w, berr)
			return
		}
		if !ok {
			writeJSON(w, http.StatusOK, JobPerfResponse{RangeStart: start, RangeEnd: end})
			return
		}
		start = time.Unix(minEnd, 0).UTC()
	}
	series, meta, err := s.fetchRollup(r, rollupQuery{
		scope: slurm.RollupScopeUser, name: user.Name, start: start, end: end,
	})
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, user.Name, func() (any, error) {
		return aggregateJobPerf(start, end, series), nil
	})
}

// aggregateJobPerf folds a rollup window into the summary metrics. The
// efficiency averages come from the store's exact fixed-point sums, so they
// equal a per-job mean recomputed from accounting rows.
func aggregateJobPerf(start, end time.Time, sr rollupSeries) JobPerfResponse {
	resp := JobPerfResponse{RangeStart: start, RangeEnd: end}
	var total slurm.RollupAgg
	for i := range sr.Rows {
		total.Add(&sr.Rows[i].RollupAgg)
	}
	resp.TotalJobs = int(total.Jobs)
	resp.CompletedJobs = int(total.Completed)
	resp.FailedJobs = int(total.Failed)
	if total.Started > 0 {
		resp.AvgWaitSeconds = float64(total.WaitSec) / float64(total.Started)
		resp.MeanDurationSecs = float64(total.WallSec) / float64(total.Started)
	}
	resp.TotalWallSeconds = total.WallSec
	resp.TotalCPUHours = float64(total.CPUSec) / 3600
	resp.TotalGPUHours = float64(total.GPUSec) / 3600
	if v := effmath.FromMicro(total.TimeEffMicro, total.TimeEffN); v >= 0 {
		resp.AvgTimeEfficiency = v
	}
	if v := effmath.FromMicro(total.CPUEffMicro, total.CPUEffN); v >= 0 {
		resp.AvgCPUEfficiency = v
	}
	if v := effmath.FromMicro(total.MemEffMicro, total.MemEffN); v >= 0 {
		resp.AvgMemoryEfficiency = v
	}
	return resp
}
