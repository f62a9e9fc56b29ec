package fleet

import (
	"maps"
	"slices"

	"ooddash/internal/obs"
	"ooddash/internal/slo"
)

// metrics is the fleet's own registry, exposed at /metrics/fleet.
type metrics struct {
	reg *obs.Registry

	lbRequests  *obs.CounterVec // ooddash_fleet_lb_requests_total{replica}
	lbFailovers *obs.Counter    // ooddash_fleet_lb_failovers_total
}

// newMetrics builds the fleet registry; it reads fl.sloAgg, so New calls it
// once the aggregator exists.
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
		"Upstream Slurm calls (CLI commands and REST requests) issued by each replica, by daemon.",
		func() []obs.Sample {
			var out []obs.Sample
			for _, rep := range fl.replicaList() {
				counts := rep.srv.UpstreamCalls()
				for _, d := range slices.Sorted(maps.Keys(counts)) {
					out = append(out, obs.Sample{
						Labels: []obs.Label{{Name: "replica", Value: rep.id}, {Name: "daemon", Value: d}},
						Value:  float64(counts[d]),
					})
				}
			}
			return out
		})
	// The fleet-level SLO view, pooled across healthy replicas, under the
	// same families each replica exports for itself.
	slo.Export(reg, "ooddash_fleet_slo", fl.sloAgg.Status, nil)
	return m
}

// Metrics returns the fleet's registry for exposition alongside the
// replicas' own /metrics.
func (fl *Fleet) Metrics() *obs.Registry { return fl.met.reg }

// OwnerChanges always returns 0: replicas share one cache tier, so no
// refresh ownership exists to change. It remains for perfbench, which
// reports it as fleet.owner_changes.
func (fl *Fleet) OwnerChanges() int64 { return 0 }
