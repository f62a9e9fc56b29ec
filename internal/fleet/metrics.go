package fleet

import (
	"sort"

	"ooddash/internal/obs"
	"ooddash/internal/slo"
)

// metrics is the fleet's own registry, exposed at /metrics/fleet.
type metrics struct {
	reg *obs.Registry

	lbRequests  *obs.CounterVec // ooddash_fleet_lb_requests_total{replica}
	lbFailovers *obs.Counter    // ooddash_fleet_lb_failovers_total
}

func newMetrics(fl *Fleet) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		lbRequests: reg.CounterVec("ooddash_fleet_lb_requests_total",
			"Requests routed by the load balancer, by serving replica.", "replica"),
		lbFailovers: reg.Counter("ooddash_fleet_lb_failovers_total",
			"Unhealthy replicas skipped by the load balancer while routing requests."),
	}
	reg.GaugeFunc("ooddash_fleet_replicas_live",
		"Replicas currently serving (not killed).",
		func() float64 { return float64(len(fl.Live())) })
	reg.CollectorFunc("ooddash_fleet_upstream_rpcs_total", obs.KindCounter,
		"Upstream Slurm commands issued by each replica, by daemon.",
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

// OwnerChanges always returns 0: replicas share one cache tier, so no
// refresh ownership exists to change. It remains for perfbench, which
// reports it as fleet.owner_changes.
func (fl *Fleet) OwnerChanges() int64 { return 0 }
