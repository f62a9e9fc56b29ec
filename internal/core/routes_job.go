package core

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/efficiency"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// stateColor maps job states to the header/timeline color (§7).
func stateColor(state slurm.JobState) string {
	switch state {
	case slurm.StateRunning, slurm.StateCompleting:
		return "blue"
	case slurm.StateCompleted:
		return "green"
	case slurm.StatePending, slurm.StateSuspended:
		return "yellow"
	case slurm.StateCancelled:
		return "gray"
	default: // FAILED, TIMEOUT, NODE_FAIL, OOM, PREEMPTED
		return "red"
	}
}

// TimelineEvent is one point on the Job Overview timeline: submitted,
// eligible, started, ended.
type TimelineEvent struct {
	Label string    `json:"label"`
	Time  time.Time `json:"time"`
	Done  bool      `json:"done"`
}

// JobOverviewResponse is the Job Overview API payload: header, timeline,
// and the overview/session tab cards (§7).
type JobOverviewResponse struct {
	// Header.
	JobID      string `json:"job_id"`
	Name       string `json:"name"`
	State      string `json:"state"`
	Reason     string `json:"reason,omitempty"`
	ReasonHelp string `json:"reason_help,omitempty"`
	Color      string `json:"color"`

	Timeline []TimelineEvent `json:"timeline"`

	// Job Information card.
	User      string `json:"user"`
	Account   string `json:"account"`
	Partition string `json:"partition"`
	QOS       string `json:"qos"`
	ExitCode  int    `json:"exit_code"`

	// Resources card.
	CPUs     int      `json:"cpus"`
	NumNodes int      `json:"num_nodes"`
	MemMB    int64    `json:"mem_mb"`
	GPUs     int      `json:"gpus,omitempty"`
	Nodes    []string `json:"nodes,omitempty"`
	NodeURLs []string `json:"node_urls,omitempty"`

	// Time card.
	WallSeconds      int64 `json:"wall_seconds"`
	TimeLimitSeconds int64 `json:"time_limit_seconds"`
	RemainingSeconds int64 `json:"remaining_seconds"`
	CPUTimeSeconds   int64 `json:"cpu_time_seconds"`

	// Efficiency card.
	Efficiency EfficiencyView `json:"efficiency"`

	// Session tab (interactive jobs only).
	App           string `json:"app,omitempty"`
	SessionID     string `json:"session_id,omitempty"`
	SessionDirURL string `json:"session_dir_url,omitempty"`
	RelaunchURL   string `json:"relaunch_url,omitempty"`

	// Log tabs.
	HasLogs   bool   `json:"has_logs"`
	StdoutURL string `json:"stdout_url,omitempty"`
	StderrURL string `json:"stderr_url,omitempty"`

	// Job Array tab.
	IsArrayTask bool   `json:"is_array_task,omitempty"`
	ArrayJobID  string `json:"array_job_id,omitempty"`
	ArrayURL    string `json:"array_url,omitempty"`
}

// parseJobID accepts raw IDs ("1234") and array display IDs ("1230_4",
// resolved via the array base).
func parseJobID(raw string) (slurm.JobID, error) {
	if base, _, ok := strings.Cut(raw, "_"); ok {
		raw = base
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad job id %q", errBadRequest, raw)
	}
	return slurm.JobID(n), nil
}

// fetchJobDetail loads scontrol's view of a job, cached briefly.
func (s *Server) fetchJobDetail(r *http.Request, id slurm.JobID) (*slurmcli.JobDetail, fetchMeta, error) {
	key := fmt.Sprintf("job:%d", id)
	v, meta, err := s.fetchVia(r, srcCtld, key, s.cfg.TTLs.JobDetail, func(ctx context.Context) (any, error) {
		return s.ctldBk.ShowJob(ctx, id)
	})
	if err != nil {
		return nil, fetchMeta{}, err
	}
	return v.(*slurmcli.JobDetail), meta, nil
}

// fetchJobAccounting loads sacct's usage view of a job (for the efficiency
// card), cached with the detail TTL.
func (s *Server) fetchJobAccounting(r *http.Request, id slurm.JobID) (*slurmcli.SacctRow, fetchMeta, error) {
	key := fmt.Sprintf("job_acct:%d", id)
	v, meta, err := s.fetchVia(r, srcDBD, key, s.cfg.TTLs.JobDetail, func(ctx context.Context) (any, error) {
		rows, err := s.dbdBk.Sacct(ctx, slurmcli.SacctOptions{
			JobIDs: []slurm.JobID{id}, AllUsers: true,
		})
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return (*slurmcli.SacctRow)(nil), nil
		}
		return &rows[0], nil
	})
	if err != nil {
		return nil, fetchMeta{}, err
	}
	return v.(*slurmcli.SacctRow), meta, nil
}

// resolveJobForViewer loads a job and enforces the visibility rule: own
// jobs and group jobs only (§2.4 Privacy). Unavailability errors pass
// through unwrapped so the caller can answer 503 instead of 404.
func (s *Server) resolveJobForViewer(user *auth.User, r *http.Request, rawID string) (*slurmcli.JobDetail, fetchMeta, error) {
	id, err := parseJobID(rawID)
	if err != nil {
		return nil, fetchMeta{}, err
	}
	d, meta, err := s.fetchJobDetail(r, id)
	if err != nil {
		if isUnavailable(err) {
			return nil, fetchMeta{}, err
		}
		return nil, fetchMeta{}, fmt.Errorf("%w: job %s: %v", errNotFound, rawID, err)
	}
	if !auth.CanViewJob(user, d.User, d.Account) {
		return nil, fetchMeta{}, fmt.Errorf("%w: job %s belongs to another group", errForbidden, rawID)
	}
	return d, meta, nil
}

func (s *Server) handleJobOverview(w http.ResponseWriter, r *http.Request, user *auth.User) {
	d, meta, err := s.resolveJobForViewer(user, r, r.PathValue("id"))
	if err != nil {
		writeFetchError(w, err)
		return
	}
	now := s.clock.Now()

	// The efficiency card's accounting fetch happens outside the build
	// closure: it contributes to meta (rev, ttl, degradation), which must be
	// final before the rendered-cache lookup.
	var acct *slurmcli.SacctRow
	if a, m, err := s.fetchJobAccounting(r, d.ID); err == nil && a != nil {
		acct = a
		meta.absorb(m)
	}

	// The payload embeds owner-only log URLs, so it renders per viewing
	// user, not per job owner.
	s.serveRendered(w, r, meta, user, func() (any, error) {
		return s.buildJobOverview(user, d, acct, now), nil
	})
}

// buildJobOverview assembles the Job Overview payload from the cached
// scontrol and sacct views.
func (s *Server) buildJobOverview(user *auth.User, d *slurmcli.JobDetail, acct *slurmcli.SacctRow, now time.Time) JobOverviewResponse {
	resp := JobOverviewResponse{
		JobID: strconv.FormatInt(int64(d.ID), 10),
		Name:  d.Name,
		State: string(d.State),
		Color: stateColor(d.State),

		User: d.User, Account: d.Account,
		Partition: d.Partition, QOS: d.QOS,
		ExitCode: d.ExitCode,

		CPUs:     d.NumCPUs,
		NumNodes: d.NumNodes,
		MemMB:    d.MemMB,
		GPUs:     d.ReqTRES.GPUs,

		WallSeconds:      int64(d.RunTime / time.Second),
		TimeLimitSeconds: int64(d.TimeLimit / time.Second),
	}
	if d.State == slurm.StatePending {
		resp.Reason = string(d.Reason)
		if msg, ok := explainReason(d.Reason); ok {
			resp.ReasonHelp = msg
		}
	}
	if d.State == slurm.StateRunning {
		remaining := d.TimeLimit - d.RunTime
		if remaining < 0 {
			remaining = 0
		}
		resp.RemainingSeconds = int64(remaining / time.Second)
	}
	if d.NodeList != "" {
		nodes, err := slurm.ExpandNodeRange(d.NodeList)
		if err == nil {
			resp.Nodes = nodes
			resp.NodeURLs = make([]string, len(nodes))
			for i, n := range nodes {
				resp.NodeURLs[i] = "/node/" + n
			}
		}
	}

	// Timeline: submitted → eligible → started → ended.
	resp.Timeline = []TimelineEvent{
		{Label: "Submitted", Time: d.SubmitTime, Done: true},
		{Label: "Eligible", Time: d.EligibleTime, Done: !d.EligibleTime.IsZero() && !d.EligibleTime.After(now)},
		{Label: "Started", Time: d.StartTime, Done: !d.StartTime.IsZero()},
		{Label: "Ended", Time: d.EndTime, Done: !d.EndTime.IsZero()},
	}

	// Efficiency card from accounting. A dead slurmdbd quietly costs the
	// card, not the page: the overview still renders from scontrol data.
	if acct != nil {
		resp.Efficiency = efficiencyView(efficiency.Compute(acct))
		resp.CPUTimeSeconds = int64(acct.TotalCPU / time.Second)
	}

	// Session tab.
	if app, sess, ok := d.SessionInfo(); ok {
		resp.App = app
		resp.SessionID = sess
		resp.SessionDirURL = "/pun/sys/files/fs" + d.WorkDir
		resp.RelaunchURL = "/pun/sys/dashboard/batch_connect/sys/" + app + "/session_contexts/new"
	}

	// Log tabs: only the owner may view logs, so only the owner gets URLs.
	if auth.CanViewLogs(user, d.User) && d.StdoutPath != "" {
		resp.HasLogs = true
		resp.StdoutURL = fmt.Sprintf("/api/job/%d/logs?stream=out", d.ID)
		resp.StderrURL = fmt.Sprintf("/api/job/%d/logs?stream=err", d.ID)
	}

	// Job Array tab.
	if d.ArrayJobID != 0 {
		resp.IsArrayTask = true
		resp.ArrayJobID = strconv.FormatInt(int64(d.ArrayJobID), 10)
		resp.ArrayURL = fmt.Sprintf("/api/job/%d/array", d.ArrayJobID)
	}
	return resp
}

// --- Output/error log tabs (§7) ----------------------------------------------

// JobLogsResponse is the log-view payload: the most recent lines with
// absolute numbering, the total count, and a link to the full file in the
// OnDemand files app.
type JobLogsResponse struct {
	JobID       string    `json:"job_id"`
	Stream      string    `json:"stream"`
	Path        string    `json:"path"`
	Lines       []LogLine `json:"lines"`
	TotalLines  int       `json:"total_lines"`
	Truncated   bool      `json:"truncated"`
	FullFileURL string    `json:"full_file_url"`
}

func (s *Server) handleJobLogs(w http.ResponseWriter, r *http.Request, user *auth.User) {
	id, err := parseJobID(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	d, _, err := s.fetchJobDetail(r, id)
	if err != nil {
		if isUnavailable(err) {
			writeFetchError(w, err)
		} else {
			writeError(w, fmt.Errorf("%w: job %d: %v", errNotFound, id, err))
		}
		return
	}
	// Logs inherit filesystem permissions: owner only (§7).
	if !auth.CanViewLogs(user, d.User) {
		writeError(w, fmt.Errorf("%w: logs of job %d are not readable by %s", errForbidden, id, user.Name))
		return
	}
	stream := r.URL.Query().Get("stream")
	var path string
	switch stream {
	case "", "out":
		stream, path = "out", d.StdoutPath
	case "err":
		path = d.StderrPath
	default:
		writeError(w, fmt.Errorf("%w: unknown stream %q", errBadRequest, stream))
		return
	}
	if path == "" {
		writeError(w, fmt.Errorf("%w: job %d has no %s log", errNotFound, id, stream))
		return
	}
	lines, total, err := s.logs.ReadTail(path, s.cfg.LogTailLines)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", errNotFound, err))
		return
	}
	writeJSON(w, http.StatusOK, JobLogsResponse{
		JobID:       strconv.FormatInt(int64(id), 10),
		Stream:      stream,
		Path:        path,
		Lines:       lines,
		TotalLines:  total,
		Truncated:   total > len(lines),
		FullFileURL: "/pun/sys/files/fs" + path,
	})
}

// --- Job Array tab (§7) --------------------------------------------------------

// ArrayTaskRow is one task in the Job Array tab.
type ArrayTaskRow struct {
	JobID       string    `json:"job_id"`
	TaskID      int       `json:"task_id"`
	State       string    `json:"state"`
	SubmitTime  time.Time `json:"submit_time"`
	StartTime   time.Time `json:"start_time,omitempty"`
	EndTime     time.Time `json:"end_time,omitempty"`
	NodeList    string    `json:"node_list,omitempty"`
	ExitCode    int       `json:"exit_code"`
	OverviewURL string    `json:"overview_url"`
}

// JobArrayResponse lists every task of one job array.
type JobArrayResponse struct {
	ArrayJobID string         `json:"array_job_id"`
	Tasks      []ArrayTaskRow `json:"tasks"`
	// StateCounts summarizes the array's progress.
	StateCounts map[string]int `json:"state_counts"`
}

func (s *Server) handleJobArray(w http.ResponseWriter, r *http.Request, user *auth.User) {
	rawID := r.PathValue("id")
	id, err := parseJobID(rawID)
	if err != nil {
		writeError(w, err)
		return
	}
	key := fmt.Sprintf("job_array:%d", id)
	v, meta, err := s.fetchVia(r, srcDBD, key, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
		return s.dbdBk.Sacct(ctx, slurmcli.SacctOptions{
			ArrayJob: strconv.FormatInt(int64(id), 10), AllUsers: true,
		})
	})
	if err != nil {
		writeFetchError(w, err)
		return
	}
	rows := v.([]slurmcli.SacctRow)
	if len(rows) == 0 {
		writeError(w, fmt.Errorf("%w: job array %d", errNotFound, id))
		return
	}
	if !auth.CanViewJob(user, rows[0].User, rows[0].Account) {
		writeError(w, fmt.Errorf("%w: job array %d belongs to another group", errForbidden, id))
		return
	}
	// The payload is the same for every authorized viewer (authz already
	// ran above), so one render serves them all.
	s.serveRendered(w, r, meta, user, func() (any, error) {
		resp := JobArrayResponse{
			ArrayJobID:  rawID,
			Tasks:       make([]ArrayTaskRow, 0, len(rows)),
			StateCounts: make(map[string]int),
		}
		for i := range rows {
			row := &rows[i]
			taskID := 0
			if _, t, ok := strings.Cut(row.JobID, "_"); ok {
				taskID, _ = strconv.Atoi(t)
			}
			nodeList := row.NodeList
			if nodeList == "None assigned" {
				nodeList = ""
			}
			resp.Tasks = append(resp.Tasks, ArrayTaskRow{
				JobID:       row.JobID,
				TaskID:      taskID,
				State:       string(row.State),
				SubmitTime:  row.SubmitTime,
				StartTime:   row.StartTime,
				EndTime:     row.EndTime,
				NodeList:    nodeList,
				ExitCode:    row.ExitCode,
				OverviewURL: "/job/" + row.JobID,
			})
			resp.StateCounts[string(row.State)]++
		}
		return resp, nil
	})
}
