package core

import (
	"context"
	"encoding/csv"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"ooddash/internal/newsfeed"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/storagedb"
)

// --- Announcements widget (§3.1) -------------------------------------------

// Announcement is one accordion entry: the article plus the display hints
// the widget derives (urgency color, active/past styling).
type Announcement struct {
	ID       int       `json:"id"`
	Title    string    `json:"title"`
	Body     string    `json:"body"`
	Category string    `json:"category"`
	Color    string    `json:"color"`
	Active   bool      `json:"active"`
	PostedAt time.Time `json:"posted_at"`
	StartsAt time.Time `json:"starts_at,omitempty"`
	EndsAt   time.Time `json:"ends_at,omitempty"`
}

// AnnouncementsResponse is the announcements API payload.
type AnnouncementsResponse struct {
	Announcements []Announcement `json:"announcements"`
	AllNewsURL    string         `json:"all_news_url"`
}

func (s *Server) handleAnnouncements(w http.ResponseWriter, r *http.Request) {
	if _, err := s.currentUser(r); err != nil {
		writeError(w, err)
		return
	}
	if s.news == nil {
		writeError(w, fmt.Errorf("%w: no news source configured", errNotFound))
		return
	}
	v, meta, err := s.fetchVia(r, srcNews, "announcements", s.cfg.TTLs.Announcements, func(context.Context) (any, error) {
		return s.news.Fetch(s.cfg.AnnouncementsLimit)
	})
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, "", func() (any, error) {
		articles := v.([]newsfeed.Article)
		now := s.clock.Now()
		resp := AnnouncementsResponse{
			Announcements: make([]Announcement, 0, len(articles)),
			AllNewsURL:    "/news",
		}
		for i := range articles {
			a := &articles[i]
			resp.Announcements = append(resp.Announcements, Announcement{
				ID: a.ID, Title: a.Title, Body: a.Body,
				Category: string(a.Category),
				Color:    a.Category.UrgencyColor(),
				Active:   a.Active(now),
				PostedAt: a.PostedAt, StartsAt: a.StartsAt, EndsAt: a.EndsAt,
			})
		}
		return resp, nil
	})
}

// --- Recent Jobs widget (§3.2) ---------------------------------------------

// RecentJob is one card in the Recent Jobs widget.
type RecentJob struct {
	JobID string `json:"job_id"`
	Name  string `json:"name"`
	State string `json:"state"`
	// StateHelp and ReasonHelp are the hoverable tooltip texts (§3.2):
	// what the status means, and why a pending job is pending.
	StateHelp  string `json:"state_help,omitempty"`
	Reason     string `json:"reason,omitempty"`
	ReasonHelp string `json:"reason_help,omitempty"`
	// Timestamp is the most relevant time for the card: end time for
	// finished jobs, start time for running, submit time for pending.
	Timestamp time.Time `json:"timestamp"`
	TimeLabel string    `json:"time_label"` // "submitted", "started", "ended"
}

// RecentJobsResponse is the recent-jobs API payload.
type RecentJobsResponse struct {
	Jobs []RecentJob `json:"jobs"`
}

func (s *Server) handleRecentJobs(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	queue, meta, err := s.fetchLiveQueue(r)
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, user.Name, func() (any, error) {
		// The viewer's rows in the queue's newest-first order, then the
		// first RecentJobsLimit of them: squeue -u <user> -t all --limit N.
		resp := RecentJobsResponse{Jobs: make([]RecentJob, 0)}
		for i := range queue {
			if queue[i].User != user.Name {
				continue
			}
			resp.Jobs = append(resp.Jobs, recentJobFromEntry(&queue[i]))
			if len(resp.Jobs) == s.cfg.RecentJobsLimit {
				break
			}
		}
		return resp, nil
	})
}

// stateDescriptions back the hoverable status tooltips (§3.2).
var stateDescriptions = map[slurm.JobState]string{
	slurm.StatePending:     "Waiting in the queue for resources or priority.",
	slurm.StateRunning:     "Currently executing on its allocated nodes.",
	slurm.StateSuspended:   "Paused; it keeps its allocation and resumes later.",
	slurm.StateCompleting:  "Finishing up: the scheduler is cleaning up the allocation.",
	slurm.StateCompleted:   "Finished successfully (exit code 0).",
	slurm.StateFailed:      "Exited with a nonzero exit code.",
	slurm.StateCancelled:   "Cancelled by the user or an administrator.",
	slurm.StateTimeout:     "Killed after reaching its requested time limit.",
	slurm.StateNodeFail:    "Terminated because a node it ran on failed.",
	slurm.StateOutOfMemory: "Killed for exceeding its requested memory.",
	slurm.StatePreempted:   "Requeued so a higher-priority job could run.",
}

func recentJobFromEntry(e *slurmcli.QueueEntry) RecentJob {
	rj := RecentJob{
		JobID:     e.JobID,
		Name:      e.Name,
		State:     string(e.State),
		StateHelp: stateDescriptions[e.State],
	}
	switch {
	case e.State == slurm.StatePending:
		rj.Timestamp, rj.TimeLabel = e.SubmitTime, "submitted"
		rj.Reason = string(e.Reason)
		// The tooltip explains obscure reasons in plain language.
		if msg, ok := explainReason(e.Reason); ok {
			rj.ReasonHelp = msg
		}
	case e.State.Active():
		rj.Timestamp, rj.TimeLabel = e.StartTime, "started"
	default:
		// Terminal: squeue rows carry no end time; approximate it from
		// start + elapsed, which is exact for the simulator's output.
		rj.Timestamp, rj.TimeLabel = e.StartTime.Add(e.Elapsed), "ended"
		if e.StartTime.IsZero() {
			rj.Timestamp, rj.TimeLabel = e.SubmitTime, "submitted"
		}
	}
	return rj
}

// --- System Status widget (§3.3) -------------------------------------------

// PartitionSummary is one row of the System Status widget.
type PartitionSummary struct {
	Name        string  `json:"name"`
	State       string  `json:"state"`
	CPUPercent  float64 `json:"cpu_percent"`
	GPUPercent  float64 `json:"gpu_percent"`
	CPUsInUse   int     `json:"cpus_in_use"`
	CPUsTotal   int     `json:"cpus_total"`
	GPUsInUse   int     `json:"gpus_in_use"`
	GPUsTotal   int     `json:"gpus_total"`
	NodesTotal  int     `json:"nodes_total"`
	RunningJobs int     `json:"running_jobs"`
	PendingJobs int     `json:"pending_jobs"`
	// Color is the progress-bar color: green < 70%, yellow 70–90%, red > 90%.
	Color string `json:"color"`
}

// MaintenanceNotice is one scheduled maintenance window shown in the
// System Status widget header, cross-linking the announcements (§3.1) with
// actual scheduler reservations.
type MaintenanceNotice struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Nodes  string    `json:"nodes"` // hostlist, or "ALL"
	Active bool      `json:"active"`
	Reason string    `json:"reason,omitempty"`
}

// SystemStatusResponse is the system-status API payload.
type SystemStatusResponse struct {
	Cluster     string              `json:"cluster"`
	Partitions  []PartitionSummary  `json:"partitions"`
	Maintenance []MaintenanceNotice `json:"maintenance,omitempty"`
	DetailsURL  string              `json:"details_url"`
}

// utilizationColor implements the paper's three-band color coding.
func utilizationColor(percent float64) string {
	switch {
	case percent > 90:
		return "red"
	case percent >= 70:
		return "yellow"
	default:
		return "green"
	}
}

func (s *Server) handleSystemStatus(w http.ResponseWriter, r *http.Request) {
	if _, err := s.currentUser(r); err != nil {
		writeError(w, err)
		return
	}
	type statusData struct {
		Parts        []slurmcli.PartitionStatus
		Reservations []slurmcli.ReservationDetail
	}
	v, meta, err := s.fetchVia(r, srcCtld, "system_status", s.cfg.TTLs.SystemStatus, func(ctx context.Context) (any, error) {
		parts, err := s.ctldBk.Sinfo(ctx)
		if err != nil {
			return nil, err
		}
		res, err := slurmcli.ShowReservations(s.runnerCtx(ctx))
		if err != nil {
			return nil, err
		}
		return statusData{Parts: parts, Reservations: res}, nil
	})
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, "", func() (any, error) {
		data := v.(statusData)
		parts := data.Parts
		resp := SystemStatusResponse{
			Cluster:    s.cfg.ClusterName,
			Partitions: make([]PartitionSummary, 0, len(parts)),
			DetailsURL: "/clusterstatus",
		}
		for _, p := range parts {
			cpuPct := p.CPUPercent()
			resp.Partitions = append(resp.Partitions, PartitionSummary{
				Name: p.Name, State: p.State,
				CPUPercent: cpuPct, GPUPercent: p.GPUPercent(),
				CPUsInUse: p.AllocCPUs, CPUsTotal: p.TotalCPUs,
				GPUsInUse: p.AllocGPUs, GPUsTotal: p.TotalGPUs,
				NodesTotal:  p.TotalNodes,
				RunningJobs: p.RunningJobs, PendingJobs: p.PendingJobs,
				Color: utilizationColor(cpuPct),
			})
		}
		now := s.clock.Now()
		for _, res := range data.Reservations {
			if now.After(res.End) {
				continue
			}
			resp.Maintenance = append(resp.Maintenance, MaintenanceNotice{
				Name: res.Name, Start: res.Start, End: res.End,
				Nodes:  res.Nodes,
				Active: !now.Before(res.Start),
				Reason: res.Comment,
			})
		}
		return resp, nil
	})
}

// --- Accounts widget (§3.4) ------------------------------------------------

// AccountRow is one allocation in the Accounts widget.
type AccountRow struct {
	Account         string  `json:"account"`
	CPUsInUse       int     `json:"cpus_in_use"`
	CPUsQueued      int     `json:"cpus_queued"`
	GrpCPULimit     int     `json:"grp_cpu_limit"`
	CPUPercent      float64 `json:"cpu_percent"`
	GPUHoursUsed    float64 `json:"gpu_hours_used"`
	GrpGPUHourLimit float64 `json:"grp_gpu_hour_limit"`
	ExportURL       string  `json:"export_url"`
}

// AccountsResponse is the accounts API payload.
type AccountsResponse struct {
	Accounts     []AccountRow `json:"accounts"`
	UserGuideURL string       `json:"user_guide_url"`
}

// accountUsage is one account's usage view: assoc limits plus the live
// queue broken down by user, derived from the two shared fills.
type accountUsage struct {
	Account         string
	GrpCPULimit     int
	GrpGPUHourLimit float64
	GPUHoursUsed    float64
	CPUsInUse       int
	CPUsQueued      int
	PerUser         []accountUserUsage
}

type accountUserUsage struct {
	User         string  `json:"user"`
	CPUsInUse    int     `json:"cpus_in_use"`
	CPUsQueued   int     `json:"cpus_queued"`
	RunningJobs  int     `json:"running_jobs"`
	PendingJobs  int     `json:"pending_jobs"`
	GPUHoursUsed float64 `json:"gpu_hours_used"`
	CPUHoursUsed float64 `json:"cpu_hours_used"`
}

// fetchLiveQueue returns the one live-queue fill: every job squeue -t all
// lists, all users, newest submission first (the controller's order), once
// per RecentJobs TTL. Recent Jobs, the Accounts widget and its exports, and
// the node running-jobs tab filter these rows to what their viewer may see,
// so the controller walks its job list once per TTL however many users
// look.
func (s *Server) fetchLiveQueue(r *http.Request) ([]slurmcli.QueueEntry, fetchMeta, error) {
	v, meta, err := s.fetchVia(r, srcCtld, "live_queue", s.cfg.TTLs.RecentJobs, func(ctx context.Context) (any, error) {
		return s.ctldBk.Squeue(ctx, slurmcli.SqueueOptions{AllStates: true})
	})
	if err != nil {
		return nil, fetchMeta{}, err
	}
	return v.([]slurmcli.QueueEntry), meta, nil
}

// fetchAccountData returns the live queue and the one association fill
// (scontrol show assoc, every account, once per Accounts TTL), with their
// merged metadata.
func (s *Server) fetchAccountData(r *http.Request) ([]slurmcli.QueueEntry, []slurmcli.AssocDetail, fetchMeta, error) {
	queue, meta, err := s.fetchLiveQueue(r)
	if err != nil {
		return nil, nil, fetchMeta{}, err
	}
	v, am, err := s.fetchVia(r, srcCtld, "assocs", s.cfg.TTLs.Accounts, func(ctx context.Context) (any, error) {
		return slurmcli.ShowAssocs(s.runnerCtx(ctx), "", "")
	})
	if err != nil {
		return nil, nil, fetchMeta{}, err
	}
	meta.absorb(am)
	return queue, v.([]slurmcli.AssocDetail), meta, nil
}

// accountUsageFrom builds one account's usage from the shared fills: its
// association records, and its queue rows in squeue's default states
// (PD/R/S/CG) — what scontrol show assoc account=<a> plus squeue -A <a>
// return.
func accountUsageFrom(account string, assocs []slurmcli.AssocDetail, queue []slurmcli.QueueEntry) *accountUsage {
	u := &accountUsage{Account: account}
	byUser := make(map[string]*accountUserUsage)
	userRow := func(name string) *accountUserUsage {
		uu := byUser[name]
		if uu == nil {
			uu = &accountUserUsage{User: name}
			byUser[name] = uu
		}
		return uu
	}
	for i := range assocs {
		a := &assocs[i]
		if a.Account != account {
			continue
		}
		if a.User == "" {
			u.GrpCPULimit = a.GrpCPULimit
			u.GrpGPUHourLimit = a.GPUHourLimit
			u.GPUHoursUsed = a.GPUHoursUsed
			continue
		}
		uu := userRow(a.User)
		uu.GPUHoursUsed = a.GPUHoursUsed
		uu.CPUHoursUsed = a.CPUHoursUsed
	}
	for i := range queue {
		e := &queue[i]
		if e.Account != account || !e.State.Active() {
			continue
		}
		uu := userRow(e.User)
		switch e.State {
		case slurm.StateRunning, slurm.StateCompleting:
			u.CPUsInUse += e.CPUs
			uu.CPUsInUse += e.CPUs
			uu.RunningJobs++
		case slurm.StatePending:
			u.CPUsQueued += e.CPUs
			uu.CPUsQueued += e.CPUs
			uu.PendingJobs++
		}
	}
	u.PerUser = make([]accountUserUsage, 0, len(byUser))
	for _, uu := range byUser {
		u.PerUser = append(u.PerUser, *uu)
	}
	sortAccountUsers(u.PerUser)
	return u
}

func sortAccountUsers(users []accountUserUsage) {
	for i := 1; i < len(users); i++ {
		for j := i; j > 0; j-- {
			a, b := &users[j-1], &users[j]
			if a.CPUsInUse > b.CPUsInUse ||
				(a.CPUsInUse == b.CPUsInUse && a.User <= b.User) {
				break
			}
			users[j-1], users[j] = users[j], users[j-1]
		}
	}
}

func (s *Server) handleAccounts(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	queue, assocs, meta, err := s.fetchAccountData(r)
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, user.Name, func() (any, error) {
		resp := AccountsResponse{
			Accounts:     make([]AccountRow, 0, len(user.Accounts)),
			UserGuideURL: s.cfg.UserGuideURL,
		}
		for _, account := range user.Accounts {
			u := accountUsageFrom(account, assocs, queue)
			row := AccountRow{
				Account:         u.Account,
				CPUsInUse:       u.CPUsInUse,
				CPUsQueued:      u.CPUsQueued,
				GrpCPULimit:     u.GrpCPULimit,
				GPUHoursUsed:    u.GPUHoursUsed,
				GrpGPUHourLimit: u.GrpGPUHourLimit,
				ExportURL:       fmt.Sprintf("/api/accounts/%s/export.csv", u.Account),
			}
			if u.GrpCPULimit > 0 {
				row.CPUPercent = 100 * float64(u.CPUsInUse) / float64(u.GrpCPULimit)
			}
			resp.Accounts = append(resp.Accounts, row)
		}
		return resp, nil
	})
}

// resolveAccountExport authorizes and loads the per-user breakdown behind
// both export formats (§3.4 offers Excel or CSV).
func (s *Server) resolveAccountExport(w http.ResponseWriter, r *http.Request) (*accountUsage, bool) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	account := r.PathValue("account")
	if !user.MemberOf(account) {
		writeError(w, fmt.Errorf("%w: %s is not a member of account %s", errForbidden, user.Name, account))
		return nil, false
	}
	queue, assocs, meta, err := s.fetchAccountData(r)
	if err != nil {
		writeFetchError(w, err)
		return nil, false
	}
	// Exports are not JSON, so stale data is flagged via the header alone.
	setDegradedHeader(w, meta)
	// Account membership gates the export, so the response is per-identity
	// as far as any fronting cache is concerned.
	setPrivateCache(w.Header())
	return accountUsageFrom(account, assocs, queue), true
}

// accountExportHeader is the column set shared by the CSV and XLSX exports.
var accountExportHeader = []string{"user", "cpus_in_use", "cpus_queued",
	"running_jobs", "pending_jobs", "gpu_hours_used", "cpu_hours_used"}

// handleAccountExport streams the per-user usage breakdown of one account
// as CSV — half of the Accounts widget's export dropdown (§3.4).
func (s *Server) handleAccountExport(w http.ResponseWriter, r *http.Request) {
	u, ok := s.resolveAccountExport(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-%s-usage.csv", s.cfg.ClusterName, u.Account))
	cw := csv.NewWriter(w)
	_ = cw.Write(accountExportHeader)
	for _, uu := range u.PerUser {
		_ = cw.Write([]string{
			uu.User,
			strconv.Itoa(uu.CPUsInUse),
			strconv.Itoa(uu.CPUsQueued),
			strconv.Itoa(uu.RunningJobs),
			strconv.Itoa(uu.PendingJobs),
			fmt.Sprintf("%.2f", uu.GPUHoursUsed),
			fmt.Sprintf("%.2f", uu.CPUHoursUsed),
		})
	}
	cw.Flush()
}

// handleAccountExportXLSX streams the same breakdown as an Excel workbook —
// the other half of the §3.4 export dropdown.
func (s *Server) handleAccountExportXLSX(w http.ResponseWriter, r *http.Request) {
	u, ok := s.resolveAccountExport(w, r)
	if !ok {
		return
	}
	rows := make([][]any, 0, len(u.PerUser)+1)
	header := make([]any, len(accountExportHeader))
	for i, h := range accountExportHeader {
		header[i] = h
	}
	rows = append(rows, header)
	for _, uu := range u.PerUser {
		rows = append(rows, []any{
			uu.User, uu.CPUsInUse, uu.CPUsQueued, uu.RunningJobs,
			uu.PendingJobs, uu.GPUHoursUsed, uu.CPUHoursUsed,
		})
	}
	w.Header().Set("Content-Type",
		"application/vnd.openxmlformats-officedocument.spreadsheetml.sheet")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-%s-usage.xlsx", s.cfg.ClusterName, u.Account))
	if err := writeXLSX(w, u.Account+" usage", rows); err != nil {
		log.Printf("core: writing xlsx: %v", err)
	}
}

// --- Storage widget (§3.5) ---------------------------------------------------

// StorageRow is one directory in the Storage widget.
type StorageRow struct {
	Path         string  `json:"path"`
	Filesystem   string  `json:"filesystem"`
	Kind         string  `json:"kind"`
	UsedBytes    int64   `json:"used_bytes"`
	QuotaBytes   int64   `json:"quota_bytes"`
	UsagePercent float64 `json:"usage_percent"`
	FileCount    int64   `json:"file_count"`
	FileLimit    int64   `json:"file_limit"`
	FilePercent  float64 `json:"file_percent"`
	Color        string  `json:"color"`
	// FilesAppURL deep-links into the Open OnDemand files app.
	FilesAppURL string `json:"files_app_url"`
}

// StorageResponse is the storage API payload.
type StorageResponse struct {
	Directories []StorageRow `json:"directories"`
}

func (s *Server) handleStorage(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.storage == nil {
		writeError(w, fmt.Errorf("%w: no storage database configured", errNotFound))
		return
	}
	key := "storage:" + user.Name
	v, meta, err := s.fetchVia(r, srcStorage, key, s.cfg.TTLs.Storage, func(context.Context) (any, error) {
		return s.storage.DirectoriesFor(user.Name, user.Accounts), nil
	})
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, user.Name, func() (any, error) {
		dirs := v.([]storagedb.Directory)
		resp := StorageResponse{Directories: make([]StorageRow, 0, len(dirs))}
		for i := range dirs {
			d := &dirs[i]
			pct := d.UsagePercent()
			resp.Directories = append(resp.Directories, StorageRow{
				Path:         d.Path,
				Filesystem:   string(d.Filesystem),
				Kind:         string(d.Kind),
				UsedBytes:    d.UsedBytes,
				QuotaBytes:   d.QuotaBytes,
				UsagePercent: pct,
				FileCount:    d.FileCount,
				FileLimit:    d.FileLimit,
				FilePercent:  d.FilePercent(),
				Color:        utilizationColor(pct),
				FilesAppURL:  "/pun/sys/files/fs" + d.Path,
			})
		}
		return resp, nil
	})
}
