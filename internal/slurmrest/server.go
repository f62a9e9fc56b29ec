package slurmrest

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ooddash/internal/obs"
	"ooddash/internal/slurm"
)

// Options configures a Server. It has no fields: the daemon renders every
// response fresh, because the dashboard's own per-caller render cache
// already sits in front of it.
type Options struct{}

// Server is the slurmrestd stand-in: a versioned JSON API over the simulated
// daemons with bearer-token scopes.
type Server struct {
	cluster *slurm.Cluster
	tokens  *TokenStore
	mux     *http.ServeMux

	mu          sync.Mutex
	requests    map[[2]string]int64 // {endpoint, status} → count
	scopeDenied map[[2]string]int64 // {endpoint, kind} → count
	redacted    map[string]int64    // endpoint → records redacted
}

// NewServer builds a REST server over cluster, authenticating against ts.
func NewServer(cluster *slurm.Cluster, ts *TokenStore, _ Options) *Server {
	s := &Server{
		cluster:     cluster,
		tokens:      ts,
		requests:    make(map[[2]string]int64),
		scopeDenied: make(map[[2]string]int64),
		redacted:    make(map[string]int64),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /slurm/v1/jobs", s.endpoint("jobs", s.handleJobs))
	mux.HandleFunc("GET /slurm/v1/jobs/{id}", s.endpoint("job", s.handleJob))
	mux.HandleFunc("GET /slurm/v1/nodes", s.endpoint("nodes", s.handleNodes))
	mux.HandleFunc("GET /slurm/v1/nodes/{name}", s.endpoint("node", s.handleNode))
	mux.HandleFunc("GET /slurm/v1/partitions", s.endpoint("partitions", s.handlePartitions))
	mux.HandleFunc("GET /slurm/v1/accounting", s.endpoint("accounting", s.handleAccounting))
	mux.HandleFunc("GET /slurm/v1/accounting/rollups", s.endpoint("rollups", s.handleRollups))
	mux.HandleFunc("GET /slurm/v1/diag", s.endpoint("diag", s.handleDiag))
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError is the JSON error envelope, loosely after slurmrestd's "errors"
// array.
type apiError struct {
	Errors []apiErrorItem `json:"errors"`
}

type apiErrorItem struct {
	Error string `json:"error"`
	Code  int    `json:"error_code"`
}

func (s *Server) count(endpoint string, status int) {
	s.mu.Lock()
	s.requests[[2]string{endpoint, strconv.Itoa(status)}]++
	s.mu.Unlock()
}

func (s *Server) countDenied(endpoint string, kind Kind) {
	s.mu.Lock()
	s.scopeDenied[[2]string{endpoint, string(kind)}]++
	s.mu.Unlock()
}

func (s *Server) countRedacted(endpoint string, n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.redacted[endpoint] += int64(n)
	s.mu.Unlock()
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "5")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Errors: []apiErrorItem{{Error: msg, Code: status}}})
}

// scopeFor reports whether kind may read endpoint at all. Field-level
// redaction for user tokens happens inside the handlers.
func scopeAllows(endpoint string, kind Kind) bool {
	switch endpoint {
	case "jobs", "job", "accounting", "rollups":
		return kind != KindService
	case "diag":
		return kind != KindUser
	default: // nodes, node, partitions: everyone
		return true
	}
}

// handlerFunc builds the response body for an authorized request. The
// endpoint wrapper handles auth, scope and error mapping.
type handlerFunc func(r *http.Request, p Principal) ([]byte, error)

// errNotFound marks semantic lookups that found nothing; mapped to 404.
var errNotFound = errors.New("slurmrest: not found")

// errForbidden marks requests a principal's scope admits but whose
// parameters reach past what that principal may see; mapped to 403.
var errForbidden = errors.New("slurmrest: forbidden")

// jsonContentType is every response's Content-Type, assigned directly into
// the header map.
var jsonContentType = []string{"application/json"}

// endpoint wraps a handler with the shared request pipeline:
// authenticate → scope check → build → write.
func (s *Server) endpoint(name string, fn handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, ok := s.tokens.FromRequest(r)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="slurm"`)
			s.count(name, http.StatusUnauthorized)
			writeError(w, http.StatusUnauthorized, "invalid or missing token")
			return
		}
		if !scopeAllows(name, p.Kind) {
			s.countDenied(name, p.Kind)
			s.count(name, http.StatusForbidden)
			writeError(w, http.StatusForbidden,
				fmt.Sprintf("%s tokens may not read /slurm/v1/%s", p.Kind, name))
			return
		}

		body, err := fn(r, p)
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, slurm.ErrUnavailable):
				status = http.StatusServiceUnavailable
			case errors.Is(err, errNotFound):
				status = http.StatusNotFound
			case errors.Is(err, errBadRequest):
				status = http.StatusBadRequest
			case errors.Is(err, errForbidden):
				status = http.StatusForbidden
			}
			s.count(name, status)
			writeError(w, status, err.Error())
			return
		}

		w.Header()["Content-Type"] = jsonContentType
		w.Write(body)
		s.count(name, http.StatusOK)
	}
}

// errBadRequest marks malformed query parameters; mapped to 400.
var errBadRequest = errors.New("slurmrest: bad request")

// --- endpoint handlers ------------------------------------------------------

// handleJobs serves the live queue. Query parameters mirror the typed
// squeue wrapper: user, account, partition, state (repeatable), all_states,
// limit. Without state filters the squeue default applies (active jobs).
func (s *Server) handleJobs(r *http.Request, p Principal) ([]byte, error) {
	q := r.URL.Query()
	filter := slurm.LiveJobFilter{
		User:      q.Get("user"),
		Account:   q.Get("account"),
		Partition: q.Get("partition"),
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("%w: limit %q", errBadRequest, v)
		}
		filter.Limit = n
	}
	if states := q["state"]; len(states) > 0 {
		for _, st := range states {
			filter.States = append(filter.States, slurm.JobState(strings.ToUpper(st)))
		}
	} else if q.Get("all_states") == "" {
		filter.States = []slurm.JobState{slurm.StatePending, slurm.StateRunning,
			slurm.StateSuspended, slurm.StateCompleting}
	}

	var resp JobsResponse
	_, err := s.cluster.Ctl.Handle(r.Context(), "REQUEST_JOB_INFO", func() (string, error) {
		now := s.cluster.Ctl.Now()
		jobs := s.cluster.Ctl.Jobs(filter)
		resp.Jobs = make([]Job, 0, len(jobs))
		hidden := 0
		for _, j := range jobs {
			wire := jobFromLive(j, now)
			if p.Kind == KindUser && j.User != p.Name {
				redactJob(&wire)
				hidden++
			}
			resp.Jobs = append(resp.Jobs, wire)
		}
		s.countRedacted("jobs", hidden)
		return "", nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// redactJob hides the identifying fields of a queue record another user may
// not inspect; scheduling state stays visible so aggregate views still work.
func redactJob(j *Job) {
	j.Name = ""
	j.Redacted = true
}

// handleJob serves one job in full detail, falling back to accounting for
// jobs the controller has aged out (scontrol's behaviour).
func (s *Server) handleJob(r *http.Request, p Principal) ([]byte, error) {
	idStr := r.PathValue("id")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: job id %q", errBadRequest, idStr)
	}
	var detail JobDetail
	_, err = s.cluster.Ctl.Handle(r.Context(), "REQUEST_JOB_INFO_SINGLE", func() (string, error) {
		now := s.cluster.Ctl.Now()
		j := s.cluster.Ctl.Job(slurm.JobID(id))
		if j == nil {
			j = s.cluster.DBD.Job(slurm.JobID(id))
		}
		if j == nil {
			return "", fmt.Errorf("%w: job %d", errNotFound, id)
		}
		detail = detailFromJob(j, now)
		if p.Kind == KindUser && j.User != p.Name {
			redactJobDetail(&detail)
			s.countRedacted("job", 1)
		}
		return "", nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(detail)
}

// redactJobDetail hides another user's job name, paths and comment.
func redactJobDetail(d *JobDetail) {
	d.Name = ""
	d.WorkDir = ""
	d.StdoutPath = ""
	d.StderrPath = ""
	d.Comment = ""
	d.Redacted = true
}

// handleAccounting serves the accounting archive. Query parameters mirror
// the typed sacct wrapper: user, account (repeatable), state (repeatable),
// start_time/end_time (unix seconds), partition, job_id (repeatable),
// array_job, limit.
func (s *Server) handleAccounting(r *http.Request, p Principal) ([]byte, error) {
	q := r.URL.Query()
	filter := slurm.JobFilter{Partition: q.Get("partition")}
	if u := q.Get("user"); u != "" {
		filter.Users = strings.Split(u, ",")
	}
	for _, a := range q["account"] {
		filter.Accounts = append(filter.Accounts, strings.Split(a, ",")...)
	}
	for _, st := range q["state"] {
		filter.States = append(filter.States, slurm.JobState(strings.ToUpper(st)))
	}
	for _, key := range [2]string{"start_time", "end_time"} {
		v := q.Get(key)
		if v == "" {
			continue
		}
		sec, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %s %q", errBadRequest, key, v)
		}
		if key == "start_time" {
			filter.Start = timeFromUnix(sec)
		} else {
			filter.End = timeFromUnix(sec)
		}
	}
	for _, idStr := range q["job_id"] {
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: job_id %q", errBadRequest, idStr)
		}
		filter.JobIDs = append(filter.JobIDs, slurm.JobID(id))
	}
	if v := q.Get("array_job"); v != "" {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: array_job %q", errBadRequest, v)
		}
		filter.ArrayJobID = slurm.JobID(id)
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("%w: limit %q", errBadRequest, v)
		}
		filter.Limit = n
	}

	var resp AccountingResponse
	_, err := s.cluster.DBD.Handle(r.Context(), "DBD_GET_JOBS_COND", func() (string, error) {
		now := s.cluster.Ctl.Now()
		jobs := s.cluster.DBD.Jobs(filter, now)
		resp.Jobs = make([]AccountingJob, 0, len(jobs))
		hidden := 0
		for _, j := range jobs {
			wire := accountingFromJob(j, now)
			if p.Kind == KindUser && j.User != p.Name {
				redactAccounting(&wire)
				hidden++
			}
			resp.Jobs = append(resp.Jobs, wire)
		}
		s.countRedacted("accounting", hidden)
		return "", nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// redactAccounting hides another user's job name, comment and workdir.
func redactAccounting(a *AccountingJob) {
	a.Name = ""
	a.Comment = ""
	a.WorkDir = ""
	a.Redacted = true
}

// handleNodes serves every node's detail block.
func (s *Server) handleNodes(r *http.Request, _ Principal) ([]byte, error) {
	var resp NodesResponse
	_, err := s.cluster.Ctl.Handle(r.Context(), "REQUEST_NODE_INFO", func() (string, error) {
		nodes := s.cluster.Ctl.Nodes()
		resp.Nodes = make([]Node, 0, len(nodes))
		for _, n := range nodes {
			resp.Nodes = append(resp.Nodes, nodeFromState(n))
		}
		return "", nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// handleNode serves one node.
func (s *Server) handleNode(r *http.Request, _ Principal) ([]byte, error) {
	name := r.PathValue("name")
	var wire Node
	_, err := s.cluster.Ctl.Handle(r.Context(), "REQUEST_NODE_INFO_SINGLE", func() (string, error) {
		n := s.cluster.Ctl.Node(name)
		if n == nil {
			return "", fmt.Errorf("%w: node %q", errNotFound, name)
		}
		wire = nodeFromState(n)
		return "", nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(wire)
}

// handlePartitions serves per-partition utilization (the sinfo surface).
func (s *Server) handlePartitions(r *http.Request, _ Principal) ([]byte, error) {
	var resp PartitionsResponse
	_, err := s.cluster.Ctl.Handle(r.Context(), "REQUEST_PARTITION_INFO", func() (string, error) {
		utils := s.cluster.Ctl.Utilization()
		resp.Partitions = make([]Partition, 0, len(utils))
		for _, u := range utils {
			resp.Partitions = append(resp.Partitions, partitionFromUtil(u))
		}
		return "", nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// handleDiag serves both daemons' statistics (the sdiag surface). Both
// daemons must answer; either being down is a 503 like the CLI path.
func (s *Server) handleDiag(r *http.Request, _ Principal) ([]byte, error) {
	var resp DiagResponse
	_, err := s.cluster.Ctl.Handle(r.Context(), "REQUEST_STATS_INFO", func() (string, error) {
		resp.Slurmctld = DaemonDiag{
			Name:      "slurmctld",
			Records:   int64(s.cluster.Ctl.ActiveJobCount()),
			RPCCounts: rpcCounts(s.cluster.Ctl.Stats().Snapshot()),
		}
		return "", nil
	})
	if err != nil {
		return nil, err
	}
	_, err = s.cluster.DBD.Handle(r.Context(), "DBD_GET_STATS", func() (string, error) {
		resp.Slurmdbd = DaemonDiag{
			Name:      "slurmdbd",
			Records:   int64(s.cluster.DBD.JobCount()),
			RPCCounts: rpcCounts(s.cluster.DBD.Stats().Snapshot()),
		}
		return "", nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

func rpcCounts(snap map[slurm.RPCKind]int64) map[string]int64 {
	out := make(map[string]int64, len(snap))
	for k, v := range snap {
		out[string(k)] = v
	}
	return out
}

// --- metrics ----------------------------------------------------------------

// Stats is a snapshot of the server's request accounting.
type Stats struct {
	// Requests counts responses by {endpoint, status code}.
	Requests map[[2]string]int64
	// ScopeDenied counts 403s by {endpoint, principal kind}.
	ScopeDenied map[[2]string]int64
	// Redacted counts records redacted for user tokens, by endpoint.
	Redacted map[string]int64
}

// Stats returns a copy of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Requests:    make(map[[2]string]int64, len(s.requests)),
		ScopeDenied: make(map[[2]string]int64, len(s.scopeDenied)),
		Redacted:    make(map[string]int64, len(s.redacted)),
	}
	for k, v := range s.requests {
		st.Requests[k] = v
	}
	for k, v := range s.scopeDenied {
		st.ScopeDenied[k] = v
	}
	for k, v := range s.redacted {
		st.Redacted[k] = v
	}
	return st
}

// RegisterMetrics exposes the server's counters on reg, so a dashboard
// embedding the REST backend surfaces scope denials and redactions next to
// its own request metrics — the audit signal the negative scope tests pin.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.CollectorFunc("ooddash_slurmrest_requests_total", obs.KindCounter,
		"REST backend responses, by endpoint and status code.", func() []obs.Sample {
			st := s.Stats()
			return pairSamples(st.Requests, "endpoint", "status")
		})
	reg.CollectorFunc("ooddash_slurmrest_scope_denied_total", obs.KindCounter,
		"REST requests denied by token scope, by endpoint and principal kind.", func() []obs.Sample {
			st := s.Stats()
			return pairSamples(st.ScopeDenied, "endpoint", "kind")
		})
	reg.CollectorFunc("ooddash_slurmrest_redacted_total", obs.KindCounter,
		"Records redacted from REST responses for user tokens, by endpoint.", func() []obs.Sample {
			st := s.Stats()
			keys := make([]string, 0, len(st.Redacted))
			for k := range st.Redacted {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			out := make([]obs.Sample, 0, len(keys))
			for _, k := range keys {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "endpoint", Value: k}},
					Value:  float64(st.Redacted[k]),
				})
			}
			return out
		})
}

// pairSamples renders a {a,b}→count map as sorted labelled samples.
func pairSamples(m map[[2]string]int64, aName, bName string) []obs.Sample {
	keys := make([][2]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]obs.Sample, 0, len(keys))
	for _, k := range keys {
		out = append(out, obs.Sample{
			Labels: []obs.Label{{Name: aName, Value: k[0]}, {Name: bName, Value: k[1]}},
			Value:  float64(m[k]),
		})
	}
	return out
}
