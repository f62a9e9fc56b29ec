package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ooddash/internal/core"
	"ooddash/internal/fleet"
	"ooddash/internal/newsfeed"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/workload"
)

// dashboardConfig is cmd/dashboard's default configuration: its own tracer
// at sample 1 with the 500 ms slow class and a 256-trace store, the default
// SLO objectives recording, and the render cache on.
func dashboardConfig(backend core.BackendConfig) core.Config {
	return core.Config{
		Push:    core.PushConfig{Heartbeat: 15 * time.Second},
		Trace:   core.TraceConfig{Sample: 1, Slow: 500 * time.Millisecond, StoreMax: 256},
		Backend: backend,
	}
}

// stack is one built system under test: the environment, the dashboard
// (one server, or a fleet of replicas) and the timing seams around it.
type stack struct {
	env     *workload.Env
	rec     *recorder
	handler http.Handler // what browsers reach
	servers []*core.Server
	fl      *fleet.Fleet
}

// close releases the push subsystems of every server.
func (st *stack) close() {
	if st.fl != nil {
		st.fl.Close()
		return
	}
	for _, s := range st.servers {
		s.Close()
	}
}

// backgroundTick runs what a deployment runs between user requests: the
// fleet's tick (each replica's TickPush inside) or the server's TickPush
// (purge, push refresh, SLO evaluation).
func (st *stack) backgroundTick() {
	kind := kindTick
	if st.fl != nil {
		kind = kindFleetTick
	}
	traced := st.rec.on.Load()
	var idx int32
	if traced {
		idx = st.rec.begin(st.rec.lanes[0], kind)
	}
	if st.fl != nil {
		st.fl.Tick()
	} else {
		st.servers[0].TickPush()
	}
	if traced {
		st.rec.end(st.rec.lanes[0], idx)
	}
}

// buildStack builds the dashboard tier over env the way cmd/dashboard does.
// Every server takes the same dependencies workload.Env.NewServerRunner
// wires, except that the news client and the REST client reach their
// handlers in process, and the Slurm runner and the REST handler are
// wrapped by the benchmark's timing seams.
func buildStack(env *workload.Env, def *workloadDef, rec *recorder) (*stack, error) {
	st := &stack{env: env, rec: rec}
	cfg := dashboardConfig(def.backend)
	runner := &timedRunner{next: env.Runner, rec: rec}
	newServer := func(r slurmcli.Runner) (*core.Server, error) {
		deps := core.Deps{
			Runner:      r,
			News:        &newsfeed.Client{BaseURL: "http://news.invalid/", HTTPClient: &http.Client{Transport: handlerTransport{env.Feed}}},
			Storage:     env.Storage,
			Users:       env.Users,
			Logs:        env.Logs,
			Clock:       env.Clock,
			Events:      env.Cluster.Ctl,
			RollupStats: env.Cluster.DBD.RollupStats,
		}
		if def.backend.Slurmctld == core.BackendREST || def.backend.Slurmdbd == core.BackendREST {
			deps.REST = slurmrest.NewClient(&timedREST{next: env.REST, rec: rec}, env.RESTTokens.Dashboard)
			deps.RESTServer = env.REST
		}
		c := cfg
		c.ClusterName = env.Cluster.Name
		return core.NewServer(c, deps)
	}
	if def.backend.Slurmctld == core.BackendREST || def.backend.Slurmdbd == core.BackendREST {
		if err := env.ProvisionREST(slurmrest.Options{}); err != nil {
			return nil, fmt.Errorf("provision REST: %w", err)
		}
	}
	if def.replicas == 0 {
		srv, err := newServer(runner)
		if err != nil {
			return nil, err
		}
		st.servers, st.handler = []*core.Server{srv}, srv
		return st, nil
	}
	// Replicas must not pause idle sources: their subscribers may sit on
	// peers. cmd/dashboard sets the same for -replicas > 1.
	cfg.Push.DisableIdlePause = true
	fl, err := fleet.New(fleet.Options{
		Replicas: def.replicas,
		Policy:   fleet.PolicyRoundRobin,
		Clock:    env.Clock,
		Runner:   runner,
		Build: func(id string, r slurmcli.Runner) (*core.Server, error) {
			return newServer(r)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	st.fl, st.handler = fl, fl
	for _, id := range fl.Replicas() {
		st.servers = append(st.servers, fl.Server(id))
	}
	return st, nil
}

// timedRunner is the slurmcli seam: every command that reaches the
// simulated Slurm CLI is recorded as a span when tracing is on. It passes
// the caller's context on, so the dashboard's own spans still nest.
type timedRunner struct {
	next slurmcli.Runner
	rec  *recorder
}

func (t *timedRunner) Run(name string, args ...string) (string, error) {
	return t.RunContext(context.Background(), name, args...)
}

func (t *timedRunner) RunContext(ctx context.Context, name string, args ...string) (out string, err error) {
	t.rec.leaf(ctx, kindCommand, name, func() { out, err = slurmcli.RunWith(ctx, t.next, name, args...) })
	return out, err
}

// timedREST is the slurmrest seam: the handler the dashboard's REST client
// calls in process. It records a span per call and counts 304 answers.
type timedREST struct {
	next http.Handler
	rec  *recorder
}

func (t *timedREST) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.rec.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t.rec.leaf(r.Context(), kindREST, "", func() { t.next.ServeHTTP(sw, r) })
	t.rec.restCalls.Add(1)
	if sw.status == http.StatusNotModified {
		t.rec.restNotModified.Add(1)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handlerTransport is an http.RoundTripper that serves requests from a
// handler in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := newRespWriter()
	t.h.ServeHTTP(w, req)
	return w.response(req), nil
}

// respWriter is the minimal ResponseWriter an in-process round trip needs.
type respWriter struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{header: make(http.Header)} }

func (w *respWriter) Header() http.Header { return w.header }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *respWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *respWriter) response(req *http.Request) *http.Response {
	body := w.body.Bytes()
	return &http.Response{
		Status:        strconv.Itoa(w.code()) + " " + http.StatusText(w.code()),
		StatusCode:    w.code(),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// clientStats are one client goroutine's transport-level observations.
type clientStats struct {
	responses int64
	bytes     int64
	peer      int64 // served from peer-propagated fleet bytes
	bad       int64 // status other than 200/304, body not JSON, or degraded
	firstBad  string
}

// browserTransport is the browser's RoundTripper: it calls the dashboard
// handler in process (the seam slurmrest.Client already uses), records the
// request span on its client goroutine's lane (and names the lane in the
// request context, so upstream calls made for it find it), and checks
// every response: 200 with a JSON body or 304, never degraded.
type browserTransport struct {
	h     http.Handler
	rec   *recorder
	lane  *lane
	stats *clientStats
}

func (t *browserTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := newRespWriter()
	if t.rec.on.Load() {
		idx := t.rec.begin(t.lane, kindRequest)
		req = req.WithContext(context.WithValue(req.Context(), laneKey{}, t.lane))
		t.h.ServeHTTP(w, req)
		t.rec.end(t.lane, idx)
	} else {
		t.h.ServeHTTP(w, req)
	}
	st := t.stats
	st.responses++
	st.bytes += int64(w.body.Len())
	if w.header.Get("X-Ooddash-Fleet") == "peer" {
		st.peer++
	}
	switch code := w.code(); {
	case w.header.Get("X-OODDash-Degraded") != "":
		st.fail(fmt.Sprintf("%s: degraded response (%s)", req.URL, w.header.Get("X-OODDash-Degraded")))
	case code == http.StatusNotModified: // no body to check
	case code != http.StatusOK:
		st.fail(fmt.Sprintf("%s: status %d: %.200s", req.URL, code, w.body.Bytes()))
	case !json.Valid(w.body.Bytes()):
		st.fail(fmt.Sprintf("%s: body is not JSON: %.200s", req.URL, w.body.Bytes()))
	}
	return w.response(req), nil
}

func (st *clientStats) fail(msg string) {
	if st.bad == 0 {
		st.firstBad = msg
	}
	st.bad++
}
