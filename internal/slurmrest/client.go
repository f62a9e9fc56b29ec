package slurmrest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/trace"
)

// Client calls a slurmrest server and decodes the wire JSON back into the
// same typed rows internal/slurmcli produces, so the dashboard's routes can
// swap between the two backends without touching their data handling.
//
// Transport is an http.Handler invoked in-process — the same seam
// httptest uses — so the simulated REST daemon needs no socket, and the
// backend A/B gate measures fill cost without network noise.
//
// The client keeps no state between calls: every call decodes the body it
// got, and every row it returns is the caller's own. The dashboard's data
// cache is the one tier in front of Slurm; the URLs a history fill asks
// for carry the fill instant and never repeat, so a per-URL store of
// decoded responses here would only hold memory. The bulk wires
// (accounting and the live queue) decode through a fixed-schema decoder
// (decode.go) that keeps a cold call near the CLI's cost.
type Client struct {
	// Handler receives every request (typically a *Server).
	Handler http.Handler
	// Token is sent as the bearer token on every request.
	Token string
	// Observe, when set, receives one call per request with the endpoint
	// name, owning daemon, wall-clock latency, and error — mirroring
	// slurmcli.MeteredRunner so both backends feed the same metrics.
	Observe func(endpoint, daemon string, d time.Duration, err error)
}

// NewClient builds a client over the in-process handler h.
func NewClient(h http.Handler, token string) *Client {
	return &Client{Handler: h, Token: token}
}

// daemonFor attributes an endpoint to the daemon that serves it, matching
// slurmcli.DaemonFor's split for the equivalent commands.
func daemonFor(endpoint string) string {
	if endpoint == "accounting" || endpoint == "rollups" {
		return "slurmdbd"
	}
	return "slurmctld"
}

// responseRecorder is the minimal ResponseWriter the in-process transport
// needs: status, headers, body.
type responseRecorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *responseRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

// get performs one GET against the handler, mapping HTTP failures to
// errors: 503 wraps slurm.ErrUnavailable so the dashboard's resilience
// layer (cache stale-serving, breaker, degraded banners) treats a REST
// outage exactly like a CLI one.
func (c *Client) get(ctx context.Context, endpoint, path string, q url.Values, out any) error {
	start := time.Now()
	err := c.doGet(ctx, endpoint, path, q, out)
	if c.Observe != nil {
		c.Observe(endpoint, daemonFor(endpoint), time.Since(start), err)
	}
	return err
}

func (c *Client) doGet(ctx context.Context, endpoint, path string, q url.Values, out any) error {
	u := path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var sp *trace.Span
	if trace.SpanFromContext(ctx) != nil {
		ctx, sp = trace.StartSpan(ctx, "slurmrest."+endpoint)
		sp.SetAttr("path", u)
		sp.SetAttr("daemon", daemonFor(endpoint))
		defer sp.End()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.Token)
	rec := &responseRecorder{header: make(http.Header)}
	c.Handler.ServeHTTP(rec, req)
	if sp != nil {
		sp.SetAttrInt("status", rec.status)
	}
	if rec.status != http.StatusOK {
		err := statusError(endpoint, rec.status, rec.body.Bytes())
		if sp != nil {
			sp.SetAttr("error", err.Error())
		}
		return err
	}
	if err := decodeBody(rec.body.Bytes(), out); err != nil {
		return fmt.Errorf("slurmrest: %s: %w", endpoint, err)
	}
	return nil
}

// decodeBody decodes a 200 body into out: the two bulk wires through their
// fixed-schema decoders, the small endpoints through encoding/json.
func decodeBody(body []byte, out any) error {
	switch v := out.(type) {
	case *AccountingResponse:
		return decodeAccounting(body, v)
	case *JobsResponse:
		return decodeJobs(body, v)
	}
	return json.Unmarshal(body, out)
}

// statusError converts a non-200 response into the error class the rest of
// the stack expects.
func statusError(endpoint string, status int, body []byte) error {
	msg := ""
	var ae apiError
	if json.Unmarshal(body, &ae) == nil && len(ae.Errors) > 0 {
		msg = ae.Errors[0].Error
	}
	switch status {
	case http.StatusServiceUnavailable:
		return fmt.Errorf("slurmrest: %s: %s: %w", endpoint, msg, slurm.ErrUnavailable)
	case http.StatusUnauthorized, http.StatusForbidden:
		return fmt.Errorf("slurmrest: %s: status %d: %s", endpoint, status, msg)
	default:
		return fmt.Errorf("slurmrest: %s: status %d: %s", endpoint, status, msg)
	}
}

// Squeue mirrors slurmcli.Squeue over the REST backend.
func (c *Client) Squeue(ctx context.Context, opts slurmcli.SqueueOptions) ([]slurmcli.QueueEntry, error) {
	q := url.Values{}
	if opts.User != "" {
		q.Set("user", opts.User)
	}
	if opts.Account != "" {
		q.Set("account", opts.Account)
	}
	if opts.Partition != "" {
		q.Set("partition", opts.Partition)
	}
	switch {
	case opts.AllStates:
		q.Set("all_states", "1")
	default:
		for _, st := range opts.States {
			q.Add("state", string(st))
		}
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	var resp JobsResponse
	if err := c.get(ctx, "jobs", "/slurm/v1/jobs", q, &resp); err != nil {
		return nil, err
	}
	return resp.rows(), nil
}

// rows converts the envelope to the CLI client's rows.
func (r *JobsResponse) rows() []slurmcli.QueueEntry {
	rows := make([]slurmcli.QueueEntry, len(r.Jobs))
	for i := range r.Jobs {
		rows[i] = r.Jobs[i].QueueEntry()
	}
	return rows
}

// Sacct mirrors slurmcli.Sacct over the REST backend.
func (c *Client) Sacct(ctx context.Context, opts slurmcli.SacctOptions) ([]slurmcli.SacctRow, error) {
	q := url.Values{}
	if opts.User != "" {
		q.Set("user", opts.User)
	}
	if len(opts.Accounts) > 0 {
		q.Set("account", strings.Join(opts.Accounts, ","))
	}
	for _, st := range opts.States {
		q.Add("state", string(st))
	}
	if !opts.Start.IsZero() {
		q.Set("start_time", strconv.FormatInt(opts.Start.Unix(), 10))
	}
	if !opts.End.IsZero() {
		q.Set("end_time", strconv.FormatInt(opts.End.Unix(), 10))
	}
	if opts.Partition != "" {
		q.Set("partition", opts.Partition)
	}
	for _, id := range opts.JobIDs {
		q.Add("job_id", strconv.FormatInt(int64(id), 10))
	}
	if opts.ArrayJob != "" {
		q.Set("array_job", opts.ArrayJob)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	var resp AccountingResponse
	if err := c.get(ctx, "accounting", "/slurm/v1/accounting", q, &resp); err != nil {
		return nil, err
	}
	return resp.rows()
}

// rows converts the envelope to the CLI client's rows.
func (r *AccountingResponse) rows() ([]slurmcli.SacctRow, error) {
	rows := make([]slurmcli.SacctRow, 0, len(r.Jobs))
	for i := range r.Jobs {
		row, err := r.Jobs[i].SacctRow()
		if err != nil {
			return nil, fmt.Errorf("slurmrest: accounting row %d: %w", i, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Sinfo mirrors slurmcli.Sinfo over the REST backend.
func (c *Client) Sinfo(ctx context.Context) ([]slurmcli.PartitionStatus, error) {
	var resp PartitionsResponse
	if err := c.get(ctx, "partitions", "/slurm/v1/partitions", nil, &resp); err != nil {
		return nil, err
	}
	rows := make([]slurmcli.PartitionStatus, len(resp.Partitions))
	for i := range resp.Partitions {
		rows[i] = resp.Partitions[i].PartitionStatus()
	}
	return rows, nil
}

// ShowAllNodes mirrors slurmcli.ShowAllNodes over the REST backend.
func (c *Client) ShowAllNodes(ctx context.Context) ([]*slurmcli.NodeDetail, error) {
	var resp NodesResponse
	if err := c.get(ctx, "nodes", "/slurm/v1/nodes", nil, &resp); err != nil {
		return nil, err
	}
	rows := make([]*slurmcli.NodeDetail, len(resp.Nodes))
	for i := range resp.Nodes {
		rows[i] = resp.Nodes[i].NodeDetail()
	}
	return rows, nil
}

// ShowJob mirrors slurmcli.ShowJob over the REST backend (including the
// server-side fallback to accounting for aged-out jobs).
func (c *Client) ShowJob(ctx context.Context, id slurm.JobID) (*slurmcli.JobDetail, error) {
	var wire JobDetail
	path := "/slurm/v1/jobs/" + strconv.FormatInt(int64(id), 10)
	if err := c.get(ctx, "job", path, nil, &wire); err != nil {
		return nil, err
	}
	return wire.CLIDetail()
}

// Sdiag mirrors slurmcli.Sdiag over the REST backend.
func (c *Client) Sdiag(ctx context.Context) (ctld, dbd slurmcli.DaemonDiag, err error) {
	var resp DiagResponse
	if err := c.get(ctx, "diag", "/slurm/v1/diag", nil, &resp); err != nil {
		return ctld, dbd, err
	}
	return resp.Slurmctld.CLIDiag(), resp.Slurmdbd.CLIDiag(), nil
}
