package fleet

import (
	"sort"

	"ooddash/internal/obs"
	"ooddash/internal/slo"
)

// propLagBuckets span the propagation-drain latency range: sub-tick (near
// zero on the simulated clock) out to several refresh intervals when a
// drain is delayed; +Inf is implicit.
var propLagBuckets = []float64{
	0.001, 0.01, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// metrics is the fleet's own registry, exposed at /metrics/fleet.
type metrics struct {
	reg *obs.Registry

	ownerChanges   *obs.Counter    // ooddash_fleet_owner_changes_total
	propagations   *obs.Counter    // ooddash_fleet_propagations_total
	propLag        *obs.Histogram  // ooddash_fleet_propagation_lag_seconds
	lbRequests     *obs.CounterVec // ooddash_fleet_lb_requests_total{replica}
	lbFailovers    *obs.Counter    // ooddash_fleet_lb_failovers_total
	ensureFailures *obs.Counter    // ooddash_fleet_ensure_failures_total
	hbExpiries     *obs.Counter    // ooddash_fleet_heartbeat_expiries_total
	reaped         *obs.Counter    // ooddash_fleet_sources_reaped_total
}

func newMetrics(fl *Fleet) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		ownerChanges: reg.Counter("ooddash_fleet_owner_changes_total",
			"Source-ownership handovers (re-elections) across all membership changes."),
		propagations: reg.Counter("ooddash_fleet_propagations_total",
			"Owner snapshots propagated to the fleet (one per source publish, fanned out to every healthy peer)."),
		propLag: reg.HistogramVec("ooddash_fleet_propagation_lag_seconds",
			"Seconds between an owner publishing a snapshot and the propagation drain shipping it to peers.",
			propLagBuckets).With(),
		lbRequests: reg.CounterVec("ooddash_fleet_lb_requests_total",
			"Requests routed by the load balancer, by serving replica.", "replica"),
		lbFailovers: reg.Counter("ooddash_fleet_lb_failovers_total",
			"Unhealthy replicas skipped by the load balancer while routing requests."),
		ensureFailures: reg.Counter("ooddash_fleet_ensure_failures_total",
			"Peer Ensure calls that failed (no live owner or owner refresh error); the requester fell back to stale or local serving."),
		hbExpiries: reg.Counter("ooddash_fleet_heartbeat_expiries_total",
			"Membership changes triggered by heartbeat timeout (replicas declared dead)."),
		reaped: reg.Counter("ooddash_fleet_sources_reaped_total",
			"Idle sources unregistered by the fleet reaper."),
	}
	reg.GaugeFunc("ooddash_fleet_replicas_live",
		"Replicas currently serving (neither killed nor declared dead).",
		func() float64 { return float64(len(fl.Live())) })
	reg.GaugeFunc("ooddash_fleet_sources",
		"Source keys currently tracked by the fleet.",
		func() float64 {
			fl.mu.Lock()
			defer fl.mu.Unlock()
			return float64(len(fl.sources))
		})
	reg.CollectorFunc("ooddash_fleet_upstream_calls_total", obs.KindCounter,
		"Commands that actually reached the simulated Slurm daemons, after memo collapsing.",
		func() []obs.Sample {
			counts := fl.UpstreamCalls()
			daemons := make([]string, 0, len(counts))
			for d := range counts {
				daemons = append(daemons, d)
			}
			sort.Strings(daemons)
			out := make([]obs.Sample, 0, len(daemons))
			for _, d := range daemons {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "daemon", Value: d}},
					Value:  float64(counts[d]),
				})
			}
			return out
		})
	reg.CollectorFunc("ooddash_fleet_upstream_collapsed_total", obs.KindCounter,
		"Identical upstream commands collapsed by the fleet-shared memo, by daemon.",
		func() []obs.Sample {
			if fl.memo == nil {
				return nil
			}
			_, hits := fl.memo.counts()
			daemons := make([]string, 0, len(hits))
			for d := range hits {
				daemons = append(daemons, d)
			}
			sort.Strings(daemons)
			out := make([]obs.Sample, 0, len(daemons))
			for _, d := range daemons {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "daemon", Value: d}},
					Value:  float64(hits[d]),
				})
			}
			return out
		})
	reg.CollectorFunc("ooddash_fleet_upstream_rpcs_total", obs.KindCounter,
		"Upstream Slurm commands issued by each replica, by daemon, before memo collapsing.",
		func() []obs.Sample {
			var out []obs.Sample
			for _, rep := range fl.replicaList() {
				counts := rep.rpcs.snapshot()
				daemons := make([]string, 0, len(counts))
				for d := range counts {
					daemons = append(daemons, d)
				}
				sort.Strings(daemons)
				for _, d := range daemons {
					out = append(out, obs.Sample{
						Labels: []obs.Label{{Name: "replica", Value: rep.id}, {Name: "daemon", Value: d}},
						Value:  float64(counts[d]),
					})
				}
			}
			return out
		})
	// Fleet-level SLO families mirror the per-replica ooddash_slo_* set so
	// one scrape answers "is the fleet meeting its objectives" next to each
	// replica's own view. All read the aggregator's self-evaluating
	// snapshot; the nil guard covers collection during construction (the
	// registry is built before the first replica, and thus the aggregator,
	// exists).
	sloStatus := func() []slo.ObjectiveStatus {
		if fl.sloAgg == nil {
			return nil
		}
		return fl.sloAgg.Status().Objectives
	}
	reg.CollectorFunc("ooddash_fleet_slo_burn_rate", obs.KindGauge,
		"Fleet-level error-budget burn rate per objective, rule, and window (pooled across healthy replicas).",
		func() []obs.Sample {
			var out []obs.Sample
			for _, o := range sloStatus() {
				for _, a := range o.Alerts {
					out = append(out,
						obs.Sample{Labels: []obs.Label{
							{Name: "objective", Value: o.Name},
							{Name: "rule", Value: a.Rule},
							{Name: "window", Value: "short"},
						}, Value: a.ShortBurn},
						obs.Sample{Labels: []obs.Label{
							{Name: "objective", Value: o.Name},
							{Name: "rule", Value: a.Rule},
							{Name: "window", Value: "long"},
						}, Value: a.LongBurn})
				}
			}
			return out
		})
	reg.CollectorFunc("ooddash_fleet_slo_alert_state", obs.KindGauge,
		"Fleet-level alert state per objective and rule (0 inactive, 1 pending, 2 firing).",
		func() []obs.Sample {
			var out []obs.Sample
			for _, o := range sloStatus() {
				for _, a := range o.Alerts {
					out = append(out, obs.Sample{Labels: []obs.Label{
						{Name: "objective", Value: o.Name},
						{Name: "rule", Value: a.Rule},
					}, Value: alertStateValue(a.State)})
				}
			}
			return out
		})
	reg.CollectorFunc("ooddash_fleet_slo_budget_spent_ratio", obs.KindGauge,
		"Fraction of the fleet's 28-day error budget spent, per objective.",
		func() []obs.Sample {
			var out []obs.Sample
			for _, o := range sloStatus() {
				out = append(out, obs.Sample{Labels: []obs.Label{
					{Name: "objective", Value: o.Name},
				}, Value: o.Budget.SpentRatio})
			}
			return out
		})
	reg.CollectorFunc("ooddash_fleet_slo_alerts_fired_total", obs.KindCounter,
		"Fleet-level alerts fired, per objective and rule.",
		func() []obs.Sample {
			var out []obs.Sample
			for _, o := range sloStatus() {
				for _, a := range o.Alerts {
					out = append(out, obs.Sample{Labels: []obs.Label{
						{Name: "objective", Value: o.Name},
						{Name: "rule", Value: a.Rule},
					}, Value: float64(a.Fired)})
				}
			}
			return out
		})
	reg.CollectorFunc("ooddash_fleet_slo_alerts_resolved_total", obs.KindCounter,
		"Fleet-level alerts resolved, per objective and rule.",
		func() []obs.Sample {
			var out []obs.Sample
			for _, o := range sloStatus() {
				for _, a := range o.Alerts {
					out = append(out, obs.Sample{Labels: []obs.Label{
						{Name: "objective", Value: o.Name},
						{Name: "rule", Value: a.Rule},
					}, Value: float64(a.Resolved)})
				}
			}
			return out
		})
	return m
}

// alertStateValue maps an alert state string to its gauge encoding.
func alertStateValue(state string) float64 {
	switch state {
	case "pending":
		return 1
	case "firing":
		return 2
	default:
		return 0
	}
}

// Metrics returns the fleet's registry for exposition alongside the
// replicas' own /metrics.
func (fl *Fleet) Metrics() *obs.Registry { return fl.met.reg }

// OwnerChanges returns the re-election count (perfbench reports it).
func (fl *Fleet) OwnerChanges() int64 { return fl.met.ownerChanges.Value() }
