package slo

import "ooddash/internal/obs"

// Export registers the metric families derived from a Status on reg, each
// named prefix + suffix: burn rates, alert states, the error-budget ledger
// and alert counts. A server exports its engine under "ooddash_slo" and
// the fleet its aggregator under "ooddash_fleet_slo", so both views carry
// the same families. status is read at every scrape. exemplar, when not
// nil, links an objective's firing alerts to a trace; it returns nil when
// it knows none.
func Export(reg *obs.Registry, prefix string, status func() Status, exemplar func(objective string) *obs.Exemplar) {
	labels := func(pairs ...string) []obs.Label {
		out := make([]obs.Label, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			out = append(out, obs.Label{Name: pairs[i], Value: pairs[i+1]})
		}
		return out
	}
	reg.CollectorFunc(prefix+"_burn_rate", obs.KindGauge,
		"Current burn rate in multiples of the budgeted error rate, by objective, rule, and window (short, long).",
		func() []obs.Sample {
			var out []obs.Sample
			for _, o := range status().Objectives {
				for _, a := range o.Alerts {
					out = append(out,
						obs.Sample{Labels: labels("objective", o.Name, "rule", a.Rule, "window", "short"), Value: a.ShortBurn},
						obs.Sample{Labels: labels("objective", o.Name, "rule", a.Rule, "window", "long"), Value: a.LongBurn})
				}
			}
			return out
		})
	budgetGauge := func(suffix, help string, read func(BudgetStatus) float64) {
		reg.CollectorFunc(prefix+suffix, obs.KindGauge, help, func() []obs.Sample {
			objs := status().Objectives
			out := make([]obs.Sample, 0, len(objs))
			for _, o := range objs {
				out = append(out, obs.Sample{Labels: labels("objective", o.Name), Value: read(o.Budget)})
			}
			return out
		})
	}
	budgetGauge("_budget_spent_ratio",
		"Share of the 28d error budget consumed, per objective (may exceed 1).",
		func(b BudgetStatus) float64 { return b.SpentRatio })
	budgetGauge("_budget_remaining_ratio",
		"Share of the 28d error budget remaining, per objective (may go negative).",
		func(b BudgetStatus) float64 { return b.RemainingRatio })
	budgetGauge("_budget_exhaustion_seconds",
		"Projected seconds until budget exhaustion at the current 1h burn rate (0 when not burning).",
		func(b BudgetStatus) float64 { return b.ExhaustionSeconds })
	reg.CollectorFunc(prefix+"_alert_state", obs.KindGauge,
		"Alert state by objective and rule (0 inactive, 1 pending, 2 firing); a firing alert carries the last bad event's trace exemplar when one is known.",
		func() []obs.Sample {
			var out []obs.Sample
			for _, o := range status().Objectives {
				for _, a := range o.Alerts {
					sample := obs.Sample{Labels: labels("objective", o.Name, "rule", a.Rule)}
					switch a.State {
					case "pending":
						sample.Value = 1
					case "firing":
						sample.Value = 2
						if exemplar != nil {
							sample.Exemplar = exemplar(o.Name)
						}
					}
					out = append(out, sample)
				}
			}
			return out
		})
	alertCounter := func(suffix, help string, read func(AlertStatus) uint64) {
		reg.CollectorFunc(prefix+suffix, obs.KindCounter, help, func() []obs.Sample {
			var out []obs.Sample
			for _, o := range status().Objectives {
				for _, a := range o.Alerts {
					out = append(out, obs.Sample{
						Labels: labels("objective", o.Name, "rule", a.Rule), Value: float64(read(a))})
				}
			}
			return out
		})
	}
	alertCounter("_alerts_fired_total",
		"Alerts that reached firing, per objective and rule.",
		func(a AlertStatus) uint64 { return a.Fired })
	alertCounter("_alerts_resolved_total",
		"Firing alerts that resolved, per objective and rule.",
		func(a AlertStatus) uint64 { return a.Resolved })
}
