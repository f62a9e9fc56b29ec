package core

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/obs"
	"ooddash/internal/push"
	"ooddash/internal/resilience"
	"ooddash/internal/slo"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/trace"
)

// traceHeader carries the request-scoped trace ID on every API response.
// A well-formed inbound value is adopted (so an upstream proxy can stitch
// its own IDs through); otherwise the middleware mints one.
const traceHeader = "X-OODDash-Trace"

// traceHeaderKey is traceHeader in net/textproto's canonical MIME form.
// The middleware reads and writes the header by direct map access with this
// key: the mixed-case spelling above is not canonical, so Header.Get/Set
// would re-canonicalize (and allocate) it on every request.
const traceHeaderKey = "X-Ooddash-Trace"

// serverObs bundles the dashboard's metric families. Everything renders
// from one obs.Registry, so /metrics is a single WritePrometheus call and
// adding a metric cannot desynchronize HELP/TYPE from its samples the way
// the old hand-rolled Fprintf block could.
type serverObs struct {
	reg *obs.Registry

	// Per-widget request metrics, recorded by the instrument middleware.
	widgetLatency  *obs.HistogramVec // ooddash_widget_request_seconds{widget}
	widgetRequests *obs.CounterVec   // ooddash_widget_requests_total{widget,status}

	// Per-source fetch results as widgets see them (cache included):
	// ok, degraded (stale-while-error), error.
	fetchResults *obs.CounterVec // ooddash_fetch_results_total{source,result}

	// Per-source upstream attribution from the resilience layer: what the
	// dashboard actually did to each data source, cache misses only.
	upstreamLatency  *obs.HistogramVec // ooddash_upstream_latency_seconds{source}
	upstreamOutcomes *obs.CounterVec   // ooddash_upstream_outcomes_total{source,outcome}

	// Per-command attribution from the metered runner: dashboard-side RPC
	// cost by daemon, comparable with the simulator's sdiag counters.
	slurmCommands *obs.CounterVec   // ooddash_slurm_commands_total{command,daemon,outcome}
	slurmLatency  *obs.HistogramVec // ooddash_slurm_command_seconds{daemon}

	// annotationsDropped counts degraded responses whose JSON payload could
	// not carry the degraded/age_seconds annotation (non-object payloads);
	// the header still marks them, but the JSON does not.
	annotationsDropped *obs.Counter // ooddash_degraded_annotations_dropped_total

	// notModified counts conditional polling requests answered 304 from the
	// client's ETag — bytes the cache saved without an upstream call.
	notModified *obs.CounterVec // ooddash_not_modified_total{widget}

	// pushRefresh times the background scheduler's per-widget refreshes.
	pushRefresh *obs.HistogramVec // ooddash_push_refresh_seconds{widget}
	// pushRefreshes counts refresh attempts by widget and result
	// (published, unchanged, error).
	pushRefreshes *obs.CounterVec // ooddash_push_refreshes_total{widget,result}

	// traceSpans receives every finished trace's span timings by layer (the
	// span name up to the first '.') — the aggregate that survives even for
	// traces the tail sampler drops.
	traceSpans *obs.HistogramVec // ooddash_trace_span_seconds{layer}

	// rollupQueries counts historical rollup reads by the resolution served
	// and how it was chosen (auto selection vs an explicit bucket request).
	rollupQueries *obs.CounterVec // ooddash_rollup_queries_total{resolution,selection}

	// fetchOutcome holds the per-source result counters pre-resolved at
	// construction: fetchVia bumps one on every widget request, and
	// CounterVec.With allocates its variadic slice and joined key per call —
	// measurable churn on the cache-hit serve path.
	fetchOutcome map[string]*fetchOutcomeCounters
}

// fetchOutcomeCounters are one source's resolved fetch-result counters.
type fetchOutcomeCounters struct {
	ok       *obs.Counter
	degraded *obs.Counter
	err      *obs.Counter
	rejected *obs.Counter // fill admission gate said no (cold key, gate at cap)
}

// newServerObs builds the registry and registers every family, including
// the render-time collectors that bridge cache stats, breaker snapshots,
// and the simulator's sdiag RPC counters.
func newServerObs(s *Server) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg: reg,
		widgetLatency: reg.HistogramVec("ooddash_widget_request_seconds",
			"Widget API request latency by widget.", nil, "widget"),
		widgetRequests: reg.CounterVec("ooddash_widget_requests_total",
			"Widget API requests by widget and HTTP status.", "widget", "status"),
		fetchResults: reg.CounterVec("ooddash_fetch_results_total",
			"Widget data fetches by source and result (ok, degraded, error); cache hits count as ok.",
			"source", "result"),
		upstreamLatency: reg.HistogramVec("ooddash_upstream_latency_seconds",
			"Upstream call latency by data source (resilience layer, cache misses only).", nil, "source"),
		upstreamOutcomes: reg.CounterVec("ooddash_upstream_outcomes_total",
			"Upstream call outcomes by data source (ok, retried, semantic_error, error, short_circuit, canceled).",
			"source", "outcome"),
		slurmCommands: reg.CounterVec("ooddash_slurm_commands_total",
			"Slurm commands issued by the dashboard, by command, daemon, and outcome.",
			"command", "daemon", "outcome"),
		slurmLatency: reg.HistogramVec("ooddash_slurm_command_seconds",
			"Slurm command latency by daemon.", nil, "daemon"),
		annotationsDropped: reg.Counter("ooddash_degraded_annotations_dropped_total",
			"Degraded responses whose non-object JSON payload could not carry the degraded/age_seconds annotation."),
		notModified: reg.CounterVec("ooddash_not_modified_total",
			"Conditional widget requests answered 304 Not Modified from the client's ETag.", "widget"),
		pushRefresh: reg.HistogramVec("ooddash_push_refresh_seconds",
			"Background push refresh latency by widget.", nil, "widget"),
		pushRefreshes: reg.CounterVec("ooddash_push_refreshes_total",
			"Background push refresh attempts by widget and result (published, unchanged, error).",
			"widget", "result"),
		traceSpans: reg.HistogramVec("ooddash_trace_span_seconds",
			"Span durations by layer, extracted from every finished trace (retained or dropped).",
			nil, "layer"),
		rollupQueries: reg.CounterVec("ooddash_rollup_queries_total",
			"Historical rollup queries by resolution served and selection mode (auto, explicit).",
			"resolution", "selection"),
	}
	o.fetchOutcome = make(map[string]*fetchOutcomeCounters, 4)
	for _, src := range []string{srcCtld, srcDBD, srcNews, srcStorage} {
		o.fetchOutcome[src] = &fetchOutcomeCounters{
			ok:       o.fetchResults.With(src, "ok"),
			degraded: o.fetchResults.With(src, "degraded"),
			err:      o.fetchResults.With(src, "error"),
			rejected: o.fetchResults.With(src, "rejected"),
		}
	}

	// Fill admission gates: concurrent-fill pressure per source, the high
	// water mark, and how many fills the cap turned away.
	fillCollector := func(name, help string, kind obs.Kind, read func(*fillGate) float64) {
		reg.CollectorFunc(name, kind, help, func() []obs.Sample {
			out := make([]obs.Sample, 0, len(fillSources))
			for _, src := range fillSources {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "source", Value: src}},
					Value:  read(s.fills[src]),
				})
			}
			return out
		})
	}
	fillCollector("ooddash_fill_inflight",
		"Upstream cache fills currently in flight, per data source.", obs.KindGauge,
		func(g *fillGate) float64 { return float64(g.inflight.Load()) })
	fillCollector("ooddash_fill_inflight_peak",
		"High-water mark of concurrent upstream fills, per data source.", obs.KindGauge,
		func(g *fillGate) float64 { return float64(g.peak.Load()) })
	fillCollector("ooddash_fill_rejected_total",
		"Cache fills rejected by the per-source concurrency cap.", obs.KindCounter,
		func(g *fillGate) float64 { return float64(g.rejected.Load()) })

	// Push fan-out health: connected clients, event flow, and the newest
	// version per widget source (a stalled gauge means refreshes stopped).
	reg.GaugeFunc("ooddash_push_connected_clients", "Open SSE subscriptions.",
		func() float64 { return float64(s.pushHub.SubscriberCount()) })
	pushCounter := func(name, help string, read func(push.HubStats) int64) {
		reg.CollectorFunc(name, obs.KindCounter, help, func() []obs.Sample {
			return []obs.Sample{{Value: float64(read(s.pushHub.Stats()))}}
		})
	}
	pushCounter("ooddash_push_events_published_total",
		"Snapshots that minted a new hub version.",
		func(st push.HubStats) int64 { return st.Published })
	pushCounter("ooddash_push_events_suppressed_total",
		"Refreshes suppressed because the content hash was unchanged.",
		func(st push.HubStats) int64 { return st.Suppressed })
	pushCounter("ooddash_push_events_delivered_total",
		"Snapshots handed to SSE client buffers.",
		func(st push.HubStats) int64 { return st.Delivered })
	pushCounter("ooddash_push_events_dropped_total",
		"Snapshots coalesced away because an SSE client lagged (drop-oldest).",
		func(st push.HubStats) int64 { return st.Dropped })
	reg.CollectorFunc("ooddash_push_widget_version", obs.KindGauge,
		"Newest published hub version per widget source.", func() []obs.Sample {
			snaps := s.pushHub.Snapshots()
			out := make([]obs.Sample, 0, len(snaps))
			for _, snap := range snaps {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "source", Value: snap.Key}},
					Value:  float64(snap.Version),
				})
			}
			return out
		})

	// Cache effectiveness: the quantities behind the paper's §2.4 argument.
	cacheCounter := func(name, help string, read func() int64) {
		reg.CollectorFunc(name, obs.KindCounter, help, func() []obs.Sample {
			return []obs.Sample{{Value: float64(read())}}
		})
	}
	cacheCounter("ooddash_cache_hits_total", "Server cache hits.",
		func() int64 { return s.cache.Stats().Hits })
	cacheCounter("ooddash_cache_misses_total", "Server cache misses.",
		func() int64 { return s.cache.Stats().Misses })
	cacheCounter("ooddash_cache_collapsed_total", "Requests collapsed onto an in-flight compute.",
		func() int64 { return s.cache.Stats().Collapsed })
	cacheCounter("ooddash_cache_errors_total", "Cache compute functions that returned an error.",
		func() int64 { return s.cache.Stats().Errors })
	cacheCounter("ooddash_cache_stale_served_total", "Degraded responses served from expired entries.",
		func() int64 { return s.cache.Stats().StaleServed })
	cacheCounter("ooddash_cache_breaker_open_total", "Compute errors that were breaker short-circuits.",
		func() int64 { return s.cache.Stats().BreakerOpen })
	reg.GaugeFunc("ooddash_cache_entries", "Current server cache entries.",
		func() float64 { return float64(s.cache.Len()) })

	// Rendered-response layer: materialized-bytes traffic and the purge sweep
	// that bounds both caches on a long-running server.
	cacheCounter("ooddash_render_hits_total", "Widget responses served from materialized bytes (no re-encode).",
		func() int64 { return s.renderHits.Load() })
	cacheCounter("ooddash_render_misses_total", "Widget responses that built and materialized their bytes.",
		func() int64 { return s.renderMisses.Load() })
	cacheCounter("ooddash_render_encodes_total", "Payload encodes (json.Marshal of widget bodies) performed.",
		func() int64 { return s.renderEncodes.Load() })
	reg.GaugeFunc("ooddash_rendered_entries", "Current rendered-response cache entries.",
		func() float64 { return float64(s.rendered.Len()) })
	cacheCounter("ooddash_cache_purged_total", "Entries dropped from both caches by the periodic purge sweep.",
		func() int64 { return s.purgedTotal.Load() })

	// Rollup store health: how much pre-aggregated state the accounting
	// daemon holds and how the compaction cascade is keeping up. Only wired
	// when Deps.RollupStats is set (the in-process simulator).
	if s.rollupStats != nil {
		reg.CollectorFunc("ooddash_rollup_buckets", obs.KindGauge,
			"Rollup store buckets held per resolution.", func() []obs.Sample {
				st := s.rollupStats()
				return []obs.Sample{
					{Labels: []obs.Label{{Name: "resolution", Value: "minute"}}, Value: float64(st.MinuteBuckets)},
					{Labels: []obs.Label{{Name: "resolution", Value: "hour"}}, Value: float64(st.HourBuckets)},
					{Labels: []obs.Label{{Name: "resolution", Value: "day"}}, Value: float64(st.DayBuckets)},
				}
			})
		reg.CollectorFunc("ooddash_rollup_compactions_total", obs.KindCounter,
			"Rollup buckets sealed by the compaction cascade, per destination level.", func() []obs.Sample {
				st := s.rollupStats()
				return []obs.Sample{
					{Labels: []obs.Label{{Name: "level", Value: "hour"}}, Value: float64(st.CompactionsHour)},
					{Labels: []obs.Label{{Name: "level", Value: "day"}}, Value: float64(st.CompactionsDay)},
				}
			})
		rollupCounter := func(name, help string, read func(slurm.RollupStats) int64) {
			reg.CollectorFunc(name, obs.KindCounter, help, func() []obs.Sample {
				return []obs.Sample{{Value: float64(read(s.rollupStats()))}}
			})
		}
		rollupCounter("ooddash_rollup_ingested_total",
			"Terminal jobs folded into the rollup store.",
			func(st slurm.RollupStats) int64 { return st.Ingested })
		rollupCounter("ooddash_rollup_late_direct_total",
			"Rollup ingests that landed in already-sealed buckets (backfill writes).",
			func(st slurm.RollupStats) int64 { return st.LateDirect })
		rollupCounter("ooddash_rollup_evicted_buckets_total",
			"Rollup buckets dropped past their resolution's retention.",
			func(st slurm.RollupStats) int64 { return st.EvictedBuckets })
	}

	// Breaker state and counters, one sample per data source.
	breakerCollector := func(name, help string, kind obs.Kind, read func(resilience.Stats) float64) {
		reg.CollectorFunc(name, kind, help, func() []obs.Sample {
			snap := s.res.Snapshot()
			out := make([]obs.Sample, 0, len(snap))
			for _, b := range snap {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "source", Value: b.Source}},
					Value:  read(b),
				})
			}
			return out
		})
	}
	breakerCollector("ooddash_breaker_state",
		"Circuit state per data source (0 closed, 1 half-open, 2 open).", obs.KindGauge,
		func(b resilience.Stats) float64 { return float64(b.State) })
	breakerCollector("ooddash_breaker_opens_total",
		"Breaker transitions into open, per data source.", obs.KindCounter,
		func(b resilience.Stats) float64 { return float64(b.Opens) })
	breakerCollector("ooddash_retries_total",
		"Retry attempts beyond the first, per data source.", obs.KindCounter,
		func(b resilience.Stats) float64 { return float64(b.Retries) })
	breakerCollector("ooddash_short_circuits_total",
		"Calls rejected by an open breaker, per data source.", obs.KindCounter,
		func(b resilience.Stats) float64 { return float64(b.ShortCircuits) })

	// Trace store: the retained-bytes gauge is the proof the tail sampler
	// bounds memory regardless of traffic; the decisions counter shows how
	// retention classes are exercised.
	reg.GaugeFunc("ooddash_trace_retained_bytes",
		"Estimated bytes held by the tail-sampled trace store.",
		func() float64 { return float64(s.tracer.Store().RetainedBytes()) })
	reg.GaugeFunc("ooddash_trace_store_traces", "Traces retained in the store.",
		func() float64 { return float64(s.tracer.Store().Len()) })
	reg.CollectorFunc("ooddash_traces_total", obs.KindCounter,
		"Tail-retention decisions by outcome (kept_error, kept_slow, kept_baseline, dropped, rejected, evicted).",
		func() []obs.Sample {
			d := s.tracer.Store().Snapshot()
			mk := func(decision string, v int64) obs.Sample {
				return obs.Sample{Labels: []obs.Label{{Name: "decision", Value: decision}}, Value: float64(v)}
			}
			return []obs.Sample{
				mk("kept_error", d.KeptError), mk("kept_slow", d.KeptSlow),
				mk("kept_baseline", d.KeptBaseline), mk("dropped", d.Dropped),
				mk("rejected", d.Rejected), mk("evicted", d.Evicted),
			}
		})

	// Live SLO engine: the event stream, current burn rates, the 28-day
	// error-budget ledger, and alert states per objective/rule. The
	// bad-event series and any firing alert carry an OpenMetrics exemplar
	// linking to the most recent bad request's trace, so a page alert on
	// the scrape points straight at a culpable retained flame trace.
	sloLabel := func(pairs ...string) []obs.Label {
		out := make([]obs.Label, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			out = append(out, obs.Label{Name: pairs[i], Value: pairs[i+1]})
		}
		return out
	}
	sloExemplar := func(objective string) *obs.Exemplar {
		if id, v, ts, ok := s.sloEng.LastBadExemplar(objective); ok {
			return &obs.Exemplar{TraceID: id, Value: v, Ts: ts}
		}
		return nil
	}
	reg.CollectorFunc("ooddash_slo_events_total", obs.KindCounter,
		"SLI events recorded by objective and result (good, bad); the bad series carries the last bad event's trace exemplar.",
		func() []obs.Sample {
			st := s.sloEng.Status()
			out := make([]obs.Sample, 0, 2*len(st.Objectives))
			for _, o := range st.Objectives {
				good, bad := s.sloEng.EventTotals(o.Name)
				out = append(out,
					obs.Sample{Labels: sloLabel("objective", o.Name, "result", "good"), Value: float64(good)},
					obs.Sample{Labels: sloLabel("objective", o.Name, "result", "bad"),
						Value: float64(bad), Exemplar: sloExemplar(o.Name)})
			}
			return out
		})
	reg.CollectorFunc("ooddash_slo_burn_rate", obs.KindGauge,
		"Current burn rate in multiples of the budgeted error rate, by objective, rule, and window (short, long).",
		func() []obs.Sample {
			st := s.sloEng.Status()
			var out []obs.Sample
			for _, o := range st.Objectives {
				for _, a := range o.Alerts {
					out = append(out,
						obs.Sample{Labels: sloLabel("objective", o.Name, "rule", a.Rule, "window", "short"), Value: a.ShortBurn},
						obs.Sample{Labels: sloLabel("objective", o.Name, "rule", a.Rule, "window", "long"), Value: a.LongBurn})
				}
			}
			return out
		})
	sloBudgetGauge := func(name, help string, read func(slo.BudgetStatus) float64) {
		reg.CollectorFunc(name, obs.KindGauge, help, func() []obs.Sample {
			st := s.sloEng.Status()
			out := make([]obs.Sample, 0, len(st.Objectives))
			for _, o := range st.Objectives {
				out = append(out, obs.Sample{
					Labels: sloLabel("objective", o.Name), Value: read(o.Budget)})
			}
			return out
		})
	}
	sloBudgetGauge("ooddash_slo_budget_spent_ratio",
		"Share of the 28d error budget consumed, per objective (may exceed 1).",
		func(b slo.BudgetStatus) float64 { return b.SpentRatio })
	sloBudgetGauge("ooddash_slo_budget_remaining_ratio",
		"Share of the 28d error budget remaining, per objective (may go negative).",
		func(b slo.BudgetStatus) float64 { return b.RemainingRatio })
	sloBudgetGauge("ooddash_slo_budget_exhaustion_seconds",
		"Projected seconds until budget exhaustion at the current 1h burn rate (0 when not burning).",
		func(b slo.BudgetStatus) float64 { return b.ExhaustionSeconds })
	reg.CollectorFunc("ooddash_slo_alert_state", obs.KindGauge,
		"Alert state by objective and rule (0 inactive, 1 pending, 2 firing); firing alerts carry the last bad event's trace exemplar.",
		func() []obs.Sample {
			st := s.sloEng.Status()
			var out []obs.Sample
			for _, o := range st.Objectives {
				for _, a := range o.Alerts {
					sample := obs.Sample{Labels: sloLabel("objective", o.Name, "rule", a.Rule)}
					switch a.State {
					case "pending":
						sample.Value = 1
					case "firing":
						sample.Value = 2
						sample.Exemplar = sloExemplar(o.Name)
					}
					out = append(out, sample)
				}
			}
			return out
		})
	sloAlertCounter := func(name, help string, read func(slo.AlertStatus) uint64) {
		reg.CollectorFunc(name, obs.KindCounter, help, func() []obs.Sample {
			st := s.sloEng.Status()
			var out []obs.Sample
			for _, o := range st.Objectives {
				for _, a := range o.Alerts {
					out = append(out, obs.Sample{
						Labels: sloLabel("objective", o.Name, "rule", a.Rule), Value: float64(read(a))})
				}
			}
			return out
		})
	}
	sloAlertCounter("ooddash_slo_alerts_fired_total",
		"Alerts that reached firing, per objective and rule.",
		func(a slo.AlertStatus) uint64 { return a.Fired })
	sloAlertCounter("ooddash_slo_alerts_resolved_total",
		"Firing alerts that resolved, per objective and rule.",
		func(a slo.AlertStatus) uint64 { return a.Resolved })

	// The simulator's own RPC counters via sdiag, so the dashboard's command
	// cost (ooddash_slurm_commands_total) can be read next to what the
	// daemons served in total. During an outage sdiag fails like everything
	// else and the family simply renders no samples.
	reg.CollectorFunc("ooddash_slurm_rpcs_total", obs.KindCounter,
		"Slurm RPCs served, by daemon and message type (sdiag).", func() []obs.Sample {
			ctld, dbd, err := s.ctldBk.Sdiag(context.Background())
			if err != nil {
				return nil
			}
			var out []obs.Sample
			for _, d := range []slurmcli.DaemonDiag{ctld, dbd} {
				kinds := make([]string, 0, len(d.RPCCounts))
				for k := range d.RPCCounts {
					kinds = append(kinds, k)
				}
				sort.Strings(kinds)
				for _, k := range kinds {
					out = append(out, obs.Sample{
						Labels: []obs.Label{{Name: "daemon", Value: d.Name}, {Name: "rpc", Value: k}},
						Value:  float64(d.RPCCounts[k]),
					})
				}
			}
			return out
		})
	return o
}

// observeUpstream is the resilience OnResult hook: per-source latency and
// outcome attribution, plus a structured line for failures so an operator
// can tie an upstream error back to the request trace that saw it.
func (s *Server) observeUpstream(ctx context.Context, r resilience.OpResult) {
	s.obsm.upstreamLatency.With(r.Source).Observe(r.Duration.Seconds())
	s.obsm.upstreamOutcomes.With(r.Source, string(r.Outcome)).Inc()
	if s.accessLog != nil && r.Err != nil {
		s.accessLog(fmt.Sprintf("upstream trace=%s source=%s outcome=%s attempts=%d dur=%s err=%q",
			logField(obs.TraceID(ctx)), r.Source, r.Outcome, r.Attempts,
			r.Duration.Round(time.Microsecond), r.Err))
	}
}

// observeRefresh is the push scheduler's hook: per-widget refresh latency
// and result attribution.
func (s *Server) observeRefresh(widget string, d time.Duration, published bool, err error) {
	result := "unchanged"
	switch {
	case err != nil:
		result = "error"
	case published:
		result = "published"
	}
	s.obsm.pushRefresh.With(widget).Observe(d.Seconds())
	s.obsm.pushRefreshes.With(widget, result).Inc()
}

// observeCommand is the metered runner's hook: per-command, per-daemon
// attribution of every Slurm invocation the dashboard makes.
func (s *Server) observeCommand(command, daemon string, d time.Duration, err error) {
	outcome := "ok"
	switch {
	case err == nil:
	case slurmcli.IsUnavailable(err):
		outcome = "unavailable"
	default:
		outcome = "error"
	}
	s.obsm.slurmCommands.With(command, daemon, outcome).Inc()
	s.obsm.slurmLatency.With(daemon).Observe(d.Seconds())
}

// widgetCtxKey carries the instrumented widget name through the request
// context, so shared helpers (the 304 counter) can label by widget.
type widgetCtxKey struct{}

// widgetFromContext returns the widget name the instrument middleware
// attached, or "unknown" outside an instrumented request.
func widgetFromContext(ctx context.Context) string {
	if w, ok := ctx.Value(widgetCtxKey{}).(string); ok {
		return w
	}
	return "unknown"
}

// statusLabel returns the metric label for a status code without the
// per-request strconv.Itoa allocation for the codes every request hits.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusNotModified:
		return "304"
	case http.StatusBadRequest:
		return "400"
	case http.StatusUnauthorized:
		return "401"
	case http.StatusForbidden:
		return "403"
	case http.StatusNotFound:
		return "404"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return strconv.Itoa(code)
}

// logField keeps empty values grep-able in access lines.
func logField(v string) string {
	if v == "" {
		return "-"
	}
	return v
}

// statusRecorder captures the response status for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush passes through so streaming handlers keep working when wrapped.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// pushRefreshHeaderKey is pushRefreshHeader in canonical MIME form, for
// allocation-free direct map reads in the middleware.
const pushRefreshHeaderKey = "X-Ooddash-Push"

// degradedHeaderKey is degradedHeader in canonical MIME form: the
// middleware reads degradation on every response by direct map access, and
// Header.Get would re-canonicalize (and allocate) the mixed-case spelling
// per request.
const degradedHeaderKey = "X-Ooddash-Degraded"

// instrument wraps a widget handler with the request-scoped observability
// envelope: a trace ID (assigned or adopted, returned as X-OODDash-Trace,
// and propagated via context), a root span feeding the tail-sampled trace
// store, a per-widget latency histogram sample, a status-labelled request
// counter, and a structured access log line.
//
// Self-observing widgets get neither spans nor SLI records: the
// observability surface itself ("metrics" and the admin trace endpoints,
// where tracing would make every trace-store read mint its own trace —
// self-tracing recursion), the SLO admin view (reading alert state must not
// perturb the SLIs it reports), and the "events" feed, whose SSE variant
// holds the connection open so a span would measure stream lifetime rather
// than work and retain every disconnect as a bogus slow trace. Upstream
// work triggered by push stays traced: the scheduler's loopback refreshes
// own their push.refresh roots.
func (s *Server) instrument(wd *Widget, h http.HandlerFunc) http.HandlerFunc {
	widget := wd.Name
	// Metric handles for this widget resolve once at mount time; the With
	// calls they replace allocated per request. 200 and 304 cover every
	// serve on the hot path; other statuses resolve lazily below.
	lat := s.obsm.widgetLatency.With(widget)
	req200 := s.obsm.widgetRequests.With(widget, "200")
	req304 := s.obsm.widgetRequests.With(widget, "304")
	spannable := !wd.selfObserving
	return func(w http.ResponseWriter, r *http.Request) {
		var traceID string
		if vs := r.Header[traceHeaderKey]; len(vs) > 0 {
			traceID = vs[0]
		}
		if !obs.ValidTraceID(traceID) {
			traceID = obs.NewTraceID()
		}
		w.Header()[traceHeaderKey] = []string{traceID}
		ctx := context.WithValue(obs.WithTrace(r.Context(), traceID), widgetCtxKey{}, widget)

		var sp *trace.Span
		if spannable {
			if trace.SpanFromContext(ctx) != nil {
				// A push loopback whose refresh trace is being recorded: join
				// it as the HTTP edge's child rather than founding a new root.
				ctx, sp = trace.StartSpan(ctx, "http")
			} else if len(r.Header[pushRefreshHeaderKey]) == 0 {
				// A client request: open the trace's root span (subject to head
				// sampling). Unsampled push loopbacks never mint misattributed
				// "http" roots — the push path owns its root.
				ctx, sp = s.tracer.StartRoot(ctx, traceID, "http", widget, "http")
			}
			if sp != nil {
				if user := r.Header.Get(auth.UserHeader); user != "" {
					sp.SetAttr("user", user)
				}
			}
		}
		r = r.WithContext(ctx)

		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		seconds := elapsed.Seconds()
		degraded := len(w.Header()[degradedHeaderKey]) > 0

		lat.Observe(seconds)
		if spannable && !s.sloOff.Load() {
			// SLI recording: latency uses the wall-clock elapsed (stalls are
			// real time even when the scenario script runs on the simulated
			// clock); window bucketing and alert evaluation happen on the
			// shared clock inside the engine. Zero allocs — the hit path's
			// budget is gated in the slo bench.
			s.sloEng.Record(seconds, rec.status, degraded, traceID)
		}
		switch rec.status {
		case http.StatusOK:
			req200.Inc()
		case http.StatusNotModified:
			req304.Inc()
		default:
			s.obsm.widgetRequests.With(widget, statusLabel(rec.status)).Inc()
		}
		if sp != nil {
			sp.SetAttr("status", statusLabel(rec.status))
			if degraded {
				sp.SetAttr("degraded", "true")
			}
			if sp.Root() {
				if _, kept := s.tracer.Finish(sp, rec.status >= 500, degraded); kept {
					// A retained trace becomes the histogram exemplar: the
					// /metrics scrape links the latest interesting request's
					// latency sample back to its stored flame trace.
					lat.SetExemplar(traceID, seconds,
						float64(s.clock.Now().UnixMilli())/1e3)
				}
			} else {
				sp.End()
			}
		}
		if s.accessLog != nil {
			s.accessLog(fmt.Sprintf("access trace=%s widget=%s path=%s status=%d dur=%s degraded=%t user=%s",
				traceID, widget, r.URL.Path, rec.status, elapsed.Round(time.Microsecond),
				w.Header().Get(degradedHeader) != "", logField(r.Header.Get(auth.UserHeader))))
		}
	}
}

// Metrics exposes the server's metrics registry, so an embedding program
// (cmd/dashboard's ops listener, tests, experiments) can render or extend
// the same exposition the /metrics widget serves.
func (s *Server) Metrics() *obs.Registry { return s.obsm.reg }

// SetAccessLog installs fn as the structured access/upstream log sink (one
// line per call). Install before serving traffic; nil (the default)
// disables access logging.
func (s *Server) SetAccessLog(fn func(line string)) { s.accessLog = fn }
