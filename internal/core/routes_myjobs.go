package core

import (
	"cmp"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
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

// MyJobsResponse is the My Jobs API payload. The table is not encoded
// from it: jobHistory.table splices the same bytes from the rows' stored
// encodings.
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

// daySecs is the width of a history fill's days: UTC days, the rollup
// store's day buckets.
const daySecs = slurm.RollupDay

// jobHistory is one history fill: the converted rows of an account set's
// jobs over a fill class window ending at asOf. Handlers only read it; each
// range derives its rows with a jobFilter.
//
// rows is newest submission first, ties by ascending job ID and array task
// (compareRows). A split fill (fillJobHistory) also stamps each UTC day
// from firstDay through the last day it holds with slurmdbd's count of
// terminal jobs for that day, so the next refill can carry over the days
// whose count held. Each row is held once: rows points into one array per
// end day and one for unfinished jobs, so a carried day pins no row of a
// day fetched again.
type jobHistory struct {
	asOf     time.Time
	rows     []*historyRow
	firstDay int64   // unix start of the day stamps[0] counts
	stamps   []int64 // empty for a fill that is not split
}

// historyRow is one row of a history fill: its JobRow encoded once, as the
// table serves it, beside the fields the views order, filter and chart by.
// Times are unix seconds, the precision both backends carry; end is 0 for
// an unfinished job. The strings are the fill's own copies, so a kept row
// pins no command output.
type historyRow struct {
	submit, end          int64
	job, task            int64 // splitJobID of the display job ID
	user, account, state string
	gpuHours             float64
	json                 []byte // json.Marshal of the row's JobRow
}

// newHistoryRow converts an accounting row as of asOf: jobRowFromSacct,
// encoded, plus the view fields. intern returns the fill's copy of a
// string.
func newHistoryRow(row *slurmcli.SacctRow, asOf time.Time, th efficiency.Thresholds, intern func(string) string) (historyRow, error) {
	jr := jobRowFromSacct(row, asOf, th)
	b, err := json.Marshal(&jr)
	if err != nil {
		return historyRow{}, fmt.Errorf("core: encoding job %s: %v", row.JobID, err)
	}
	hr := historyRow{
		submit:   row.SubmitTime.Unix(),
		user:     intern(jr.User),
		account:  intern(jr.Account),
		state:    intern(jr.State),
		gpuHours: jr.GPUHours,
		json:     b,
	}
	if !row.EndTime.IsZero() {
		hr.end = row.EndTime.Unix()
	}
	hr.job, hr.task = splitJobID(row.JobID)
	return hr, nil
}

// stamp returns h's count stamp for the day starting at d, or -1 when h
// holds no stamp for it.
func (h *jobHistory) stamp(d int64) int64 {
	if h == nil || d < h.firstDay {
		return -1
	}
	if i := (d - h.firstDay) / daySecs; i < int64(len(h.stamps)) {
		return h.stamps[i]
	}
	return -1
}

// historyScope is what one history fill covers: an account set, or a user
// in no account.
type historyScope struct {
	key   string                // the fill's cache key
	sacct slurmcli.SacctOptions // the selection, without its window
	// rollup and names select the day counts that add up to the scope's:
	// the account series of the set, or the user's own series.
	rollup string
	names  []string
}

// fetchJobHistory returns the history fill that serves tr for user: the
// jobs of their accounts (their own jobs plus their groups', §2.4 Privacy)
// over tr's fill class. The key names what the caller may see (shareKey,
// the same key the account-set renders and push sources go by) and the
// class, never an instant, so every member of the same groups shares one
// fill per class per TTL, and a stale value stays findable while slurmdbd
// is down. A user in no account sees only their own jobs, under a key that
// names them: sacct -a without -A would list the whole cluster. The cache
// holds fully converted rows: efficiency metrics and warning strings are
// the expensive part of this route.
func (s *Server) fetchJobHistory(r *http.Request, user *auth.User, tr timeRange) (*jobHistory, fetchMeta, error) {
	class := tr.fillClass()
	sc := historyScope{
		key:    "myjobs:" + shareKey(user) + ":" + class.key(),
		sacct:  slurmcli.SacctOptions{Accounts: user.Accounts, AllUsers: true},
		rollup: slurm.RollupScopeAccount,
		names:  user.Accounts,
	}
	if len(user.Accounts) == 0 {
		sc.sacct = slurmcli.SacctOptions{User: user.Name}
		sc.rollup, sc.names = slurm.RollupScopeUser, []string{user.Name}
	}
	v, meta, err := s.fetchVia(r, srcDBD, sc.key, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
		return s.fillJobHistory(ctx, sc, class)
	})
	if err != nil {
		return nil, fetchMeta{}, err
	}
	return v.(*jobHistory), meta, nil
}

// fillJobHistory runs one history fill of class for sc. A named class with
// a start (30d, 90d, 1y) is split at UTC midnights. Its live part —
// yesterday, today and every unfinished job — is fetched on every fill.
// Each closed day before yesterday is carried over from the value the
// cache still retains for the key, as long as its stamp equals slurmdbd's
// count for the day in the day-count snapshot, which is read before the
// sacct. One sacct then runs from the earliest day whose count moved
// (normally yesterday's midnight) to asOf. A cold key, a failed count
// fill, and the custom and all classes fetch the whole window in that one
// sacct.
//
// The late-record contract: a record that reaches slurmdbd within a day of
// its job's end lands in the live part. A later one moves its day's count,
// so it appears from the first fill whose count snapshot postdates it, at
// most one TTL later.
func (s *Server) fillJobHistory(ctx context.Context, sc historyScope, class timeRange) (*jobHistory, error) {
	asOf := s.historyAsOf()
	start, end := class.window(asOf)
	h := &jobHistory{asOf: asOf}
	split := class.name != "custom" && !start.IsZero()
	from := start
	var prev *jobHistory
	var counts *dayCounts
	if split {
		h.firstDay = alignDown(start.Unix(), daySecs)
		counts = s.fetchDayCounts(ctx, sc.rollup, class)
		if v, ok := s.cache.Retained(sc.key); ok {
			prev = v.(*jobHistory)
		}
		yesterday := alignDown(asOf.Unix(), daySecs) - daySecs
		if m := firstMovedDay(prev, counts, sc.names, h.firstDay, yesterday); m > start.Unix() {
			from = time.Unix(m, 0).UTC()
		}
	}
	o := sc.sacct
	o.Start, o.End = from, end
	rows, err := s.dbdBk.Sacct(ctx, o)
	if err != nil {
		return nil, err
	}

	// Convert into one array per end day, each sized before conversion, and
	// a last one for the rest: unfinished jobs, or every row of a fill that
	// is not split. The sacct starts at or after firstDay, so no row ended
	// before it; one may end after asOf's day if the clock moved meanwhile.
	days := 0
	if split {
		days = int((alignDown(asOf.Unix(), daySecs)-h.firstDay)/daySecs) + 1
	}
	dayOf := func(row *slurmcli.SacctRow) int {
		if !split || row.EndTime.IsZero() {
			return -1
		}
		return int((alignDown(row.EndTime.Unix(), daySecs) - h.firstDay) / daySecs)
	}
	for i := range rows {
		days = max(days, dayOf(&rows[i])+1)
	}
	sizes := make([]int, days+1)
	for i := range rows {
		if d := dayOf(&rows[i]); d >= 0 {
			sizes[d]++
		} else {
			sizes[days]++
		}
	}
	th := efficiency.DefaultThresholds()
	interned := make(map[string]string)
	intern := func(v string) string {
		c, ok := interned[v]
		if !ok {
			c = strings.Clone(v)
			interned[c] = c
		}
		return c
	}
	fetched := make([]*historyRow, 0, len(rows))
	arrays := make([][]historyRow, days+1)
	for i := range rows {
		d := dayOf(&rows[i])
		if d < 0 {
			d = days
		}
		if arrays[d] == nil {
			arrays[d] = make([]historyRow, 0, sizes[d])
		}
		hr, err := newHistoryRow(&rows[i], asOf, th, intern)
		if err != nil {
			return nil, err
		}
		arrays[d] = append(arrays[d], hr)
		fetched = append(fetched, &arrays[d][len(arrays[d])-1])
	}
	slices.SortFunc(fetched, compareRows)
	h.stamps = make([]int64, days)
	for i := range h.stamps {
		h.stamps[i] = counts.count(h.firstDay+int64(i)*daySecs, sc.names)
	}

	fetchedDay := alignDown(from.Unix(), daySecs)
	if prev == nil || fetchedDay <= h.firstDay {
		h.rows = fetched
		return h, nil
	}
	// Carry over the closed days' visible rows, minus every job the sacct
	// returned again: a requeued job leaves its old day.
	type jobTask struct{ job, task int64 }
	again := make(map[jobTask]struct{}, len(fetched))
	for _, row := range fetched {
		again[jobTask{row.job, row.task}] = struct{}{}
	}
	carried := make([]*historyRow, 0, len(prev.rows))
	for _, row := range prev.rows {
		if row.end == 0 {
			continue
		}
		if d := alignDown(row.end, daySecs); d < h.firstDay || d >= fetchedDay {
			continue
		}
		if _, dup := again[jobTask{row.job, row.task}]; !dup {
			carried = append(carried, row)
		}
	}
	h.rows = mergeRows(carried, fetched)
	return h, nil
}

// firstMovedDay returns the first closed day, from first up to yesterday,
// that prev holds no stamp for or whose stamp differs from its count in c,
// or yesterday when every closed day held. With no retained fill or no
// counts it returns first: nothing can be carried over.
func firstMovedDay(prev *jobHistory, c *dayCounts, names []string, first, yesterday int64) int64 {
	if prev == nil || c == nil {
		return first
	}
	for d := first; d < yesterday; d += daySecs {
		if st := prev.stamp(d); st < 0 || st != c.count(d, names) {
			return d
		}
	}
	return yesterday
}

// compareRows orders history rows newest submission first, ties by
// ascending job ID and array task, the order of a whole-window sacct sorted
// by submission. It is a total order, so rows from different fills merge
// into the same sequence. IDs compare as numbers: "99" before "100", and
// "7_2" before "7_10".
func compareRows(a, b *historyRow) int {
	if c := cmp.Compare(b.submit, a.submit); c != 0 {
		return c
	}
	if c := cmp.Compare(a.job, b.job); c != 0 {
		return c
	}
	return cmp.Compare(a.task, b.task)
}

// splitJobID parses a display job ID, "1234" or "1234_7", into its job and
// array task numbers; a job that is not an array task has task -1.
func splitJobID(id string) (job, task int64) {
	task = -1
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c == '_':
			task = 0
		case task < 0:
			job = job*10 + int64(c-'0')
		default:
			task = task*10 + int64(c-'0')
		}
	}
	return job, task
}

// mergeRows merges two row lists, each in compareRows order, into one.
func mergeRows(a, b []*historyRow) []*historyRow {
	out := make([]*historyRow, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if compareRows(b[0], a[0]) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// dayCounts is one day-count fill: slurmdbd's day rollup of terminal jobs
// for every series of one scope, over the UTC days from first through the
// day it was read.
type dayCounts struct {
	first  int64
	days   int
	series map[string][]int64 // series name → count per day
}

// count returns the day's terminal-job count summed over the named series,
// or -1 when c does not cover the day.
func (c *dayCounts) count(day int64, names []string) int64 {
	if c == nil || day < c.first || day >= c.first+int64(c.days)*daySecs {
		return -1
	}
	i := (day - c.first) / daySecs
	var n int64
	for _, name := range names {
		if per := c.series[name]; per != nil {
			n += per[i]
		}
	}
	return n
}

// fetchDayCounts returns the day-count fill for scope and class: one rollup
// query per TTL at day resolution, for every series of the scope, shared
// by every history fill of the class. It runs inside a history fill's
// admission slot and resilience attempt, so it takes no slot of its own,
// and it counts in slurmdbd's fetch-outcome counter. On failure it returns
// nil, and the fill fetches its whole window.
func (s *Server) fetchDayCounts(ctx context.Context, scope string, class timeRange) *dayCounts {
	key := "myjobs-days:" + scope + ":" + class.key()
	res, err := s.cache.FetchStaleCtx(ctx, key, s.cfg.TTLs.JobHistory, 0, func(ctx context.Context) (any, error) {
		asOf := s.historyAsOf()
		start, _ := class.window(asOf)
		end := alignDown(asOf.Unix(), daySecs) + daySecs
		c := &dayCounts{first: alignDown(start.Unix(), daySecs), series: make(map[string][]int64)}
		c.days = int((end - c.first) / daySecs)
		result, err := s.dbdBk.Rollup(ctx, slurmcli.RollupOptions{
			Scope: scope, Start: c.first, End: end, Resolution: slurm.RollupDay,
		})
		if err != nil {
			return nil, err
		}
		for _, row := range result.Rows {
			i := (row.BucketStart - c.first) / daySecs
			if i < 0 || i >= int64(c.days) {
				continue
			}
			per := c.series[row.Name]
			if per == nil {
				per = make([]int64, c.days)
				c.series[row.Name] = per
			}
			per[i] = row.Jobs
		}
		return c, nil
	})
	oc := s.obsm.fetchOutcome[srcDBD]
	if err != nil {
		oc.err.Inc()
		return nil
	}
	oc.ok.Inc()
	return res.Value.(*dayCounts)
}

// jobFilter is the one row filter of the My Jobs table, its export and its
// charts. since is the window part: sacct keeps a job whose [submit, end or
// now] overlaps the window, and every row of a fill was submitted by its
// asOf, so a range derives its rows from a longer fill by dropping only the
// jobs that ended before the range's start. The other fields mirror the
// table's controls; the charts use the window part alone.
type jobFilter struct {
	since                int64 // unix; math.MinInt64: all time
	state, user, account string
	mine                 string // the viewer's name when mine=1
}

// newJobFilter builds the filter for tr over the fill h from the query's
// filters.
func newJobFilter(q url.Values, h *jobHistory, tr timeRange, viewer string) jobFilter {
	f := jobFilter{
		since:   windowSince(h, tr),
		state:   strings.ToUpper(q.Get("state")),
		user:    q.Get("user"),
		account: q.Get("account"),
	}
	if q.Get("mine") == "1" {
		f.mine = viewer
	}
	return f
}

// windowSince is the unix start of tr's window over the fill h, or
// math.MinInt64 for all time.
func windowSince(h *jobHistory, tr timeRange) int64 {
	if start, _ := tr.window(h.asOf); !start.IsZero() {
		return start.Unix()
	}
	return math.MinInt64
}

// inWindow reports whether the row belongs to the filter's range.
func (f *jobFilter) inWindow(row *historyRow) bool {
	return row.end == 0 || row.end >= f.since
}

// matches reports whether the row passes the query filters.
func (f *jobFilter) matches(row *historyRow) bool {
	return (f.mine == "" || row.user == f.mine) &&
		(f.user == "" || row.user == f.user) &&
		(f.account == "" || row.account == f.account) &&
		(f.state == "" || row.state == f.state)
}

// loadJobHistory is the shared head of the My Jobs routes: the parsed range
// and the fill serving it to user. It writes the error response and returns
// ok=false on failure.
func (s *Server) loadJobHistory(w http.ResponseWriter, r *http.Request, user *auth.User) (tr timeRange, h *jobHistory, meta fetchMeta, ok bool) {
	var err error
	if tr, err = parseTimeRange(r); err != nil {
		writeError(w, err)
		return
	}
	if h, meta, err = s.fetchJobHistory(r, user, tr); err != nil {
		writeFetchError(w, err)
		return
	}
	return tr, h, meta, true
}

func (s *Server) handleMyJobs(w http.ResponseWriter, r *http.Request, user *auth.User) {
	tr, h, meta, ok := s.loadJobHistory(w, r, user)
	if !ok {
		return
	}
	q := r.URL.Query()
	s.serveRendered(w, r, meta, user, func() (any, error) {
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
		f := newJobFilter(q, h, tr, user.Name)
		return h.table(&f, offset, limit), nil
	})
}

// table returns the My Jobs body for the rows f selects, paged from offset
// (clamped to the match count) to at most limit rows (0: no limit): the
// bytes json.Marshal writes for a MyJobsResponse, spliced from each row's
// stored encoding. encoding/json writes a slice as its elements joined by
// commas, so the bytes are the same; Jobs is null when nothing matched, as
// a nil slice is, and [] for a page past the last match.
func (h *jobHistory) table(f *jobFilter, offset, limit int) json.RawMessage {
	// The first pass counts and sizes the page and finds the span of rows
	// holding it; the second copies the page's bytes.
	var total, matched, size, lo, hi int
	for i, row := range h.rows {
		if !f.inWindow(row) {
			continue
		}
		total++
		if !f.matches(row) {
			continue
		}
		if matched >= offset && (limit == 0 || matched < offset+limit) {
			if size == 0 {
				lo = i
			}
			hi = i + 1
			size += len(row.json) + 1
		}
		matched++
	}
	offset = min(offset, matched)
	// The spare capacity holds the counts and the newline a served body
	// appends.
	b := make([]byte, 0, size+80)
	b = append(b, `{"jobs":`...)
	if matched == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for _, row := range h.rows[lo:hi] {
			if f.inWindow(row) && f.matches(row) {
				if b[len(b)-1] != '[' {
					b = append(b, ',')
				}
				b = append(b, row.json...)
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"matched":`...)
	b = strconv.AppendInt(b, int64(matched), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	return append(b, '}')
}

// handleMyJobsExport streams the (filtered) My Jobs table as CSV — the
// DataTables-style export next to the §3.4 account export, with the same
// scope and filters as the JSON route.
func (s *Server) handleMyJobsExport(w http.ResponseWriter, r *http.Request, user *auth.User) {
	tr, h, meta, ok := s.loadJobHistory(w, r, user)
	if !ok {
		return
	}
	f := newJobFilter(r.URL.Query(), h, tr, user.Name)
	// Each row's stored encoding decodes back to its JobRow exactly: JSON
	// round-trips every field type the row holds.
	var rows []JobRow
	for _, hr := range h.rows {
		if !f.inWindow(hr) || !f.matches(hr) {
			continue
		}
		var row JobRow
		if err := json.Unmarshal(hr.json, &row); err != nil {
			writeError(w, fmt.Errorf("core: decoding job %d: %v", hr.job, err))
			return
		}
		rows = append(rows, row)
	}

	setDegradedHeader(w, meta)
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
	for _, row := range rows {
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

func (s *Server) handleMyJobsCharts(w http.ResponseWriter, r *http.Request, user *auth.User) {
	tr, h, meta, ok := s.loadJobHistory(w, r, user)
	if !ok {
		return
	}
	s.serveRendered(w, r, meta, user, func() (any, error) {
		f := jobFilter{since: windowSince(h, tr)}
		states := make(map[string]*UserStateBar)
		gpu := make(map[string]float64)
		for _, row := range h.rows {
			if !f.inWindow(row) {
				continue
			}
			bar := states[row.user]
			if bar == nil {
				bar = &UserStateBar{User: row.user, States: make(map[string]int)}
				states[row.user] = bar
			}
			bar.States[row.state]++
			bar.Total++
			gpu[row.user] += row.gpuHours
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

// handleJobPerf serves /api/jobperf?range= — the user's own terminal jobs,
// summed from the rollup pipeline over the bucket-aligned window. Queued and
// running work has no end time yet and so no bucket; the queue views cover
// it.
func (s *Server) handleJobPerf(w http.ResponseWriter, r *http.Request, user *auth.User) {
	q := rollupQuery{scope: slurm.RollupScopeUser, name: user.Name}
	s.serveRollup(w, r, user, "7d", q, func(sr *rollupSeries) any {
		return aggregateJobPerf(sr)
	})
}

// aggregateJobPerf folds a rollup window into the summary metrics. The
// efficiency averages come from the store's exact fixed-point sums, so they
// equal a per-job mean recomputed from accounting rows.
func aggregateJobPerf(sr *rollupSeries) JobPerfResponse {
	resp := JobPerfResponse{RangeStart: sr.From, RangeEnd: sr.To}
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
