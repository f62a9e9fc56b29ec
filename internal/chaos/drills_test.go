package chaos

// The drills: every catalog scenario executed end to end on the simulated
// clock — no wall-clock sleeps, so the whole file runs in milliseconds and
// stays -race clean. Each drill builds a fresh cluster + dashboard, runs the
// scenario's scripted storm, and relies on the scenario's own Check/Verify
// hooks for the resilience assertions; the test bodies add only the
// drill-harness-specific expectations (traffic actually flowed, fault
// injection actually bit).

import (
	"testing"
	"time"
)

func drill(t *testing.T, name string, opts Options) *Run {
	t.Helper()
	sc, ok := ByName(name)
	if !ok {
		t.Fatalf("scenario %q not in catalog", name)
	}
	if opts.Seed == 0 {
		opts.Seed = 1905
	}
	r, err := NewRun(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	start := r.Env.Clock.Now()
	if err := r.Execute(sc); err != nil {
		t.Fatal(err)
	}
	// The drill ran on simulated time only: the clock must have moved by
	// exactly the scripted span plus any injected-latency sleeps, and there
	// must have been actual scenario traffic to classify.
	if got := r.Env.Clock.Now().Sub(start); got < time.Duration(sc.Steps)*sc.StepEvery {
		t.Fatalf("simulated span = %v, want >= %v", got, time.Duration(sc.Steps)*sc.StepEvery)
	}
	if h := r.Health(); h.Requests == 0 {
		t.Fatal("scenario issued no loopback traffic")
	}
	return r
}

func TestCatalogComplete(t *testing.T) {
	want := []string{
		"maintenance_drain", "node_failure_storm", "power_cycle",
		"job_array_storm", "accounting_backfill", "login_rush",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d scenarios, want %d: %v", len(got), len(want), got)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("catalog[%d] = %q, want %q", i, got[i], name)
		}
		sc, ok := ByName(name)
		if !ok || sc.Name != name {
			t.Fatalf("ByName(%q) not found", name)
		}
		if sc.Steps <= 0 || sc.StepEvery <= 0 {
			t.Fatalf("%s: unscripted steps (%d x %v)", name, sc.Steps, sc.StepEvery)
		}
		if sc.SLO.P99 <= 0 {
			t.Fatalf("%s: no p99 SLO", name)
		}
		if sc.Draw == nil {
			t.Fatalf("%s: no load-harness draw", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted an unknown scenario")
	}
}

func TestDrillMaintenanceDrain(t *testing.T) {
	r := drill(t, "maintenance_drain", Options{})
	if len(r.Covered) == 0 {
		t.Fatal("no nodes were drained")
	}
	if h := r.Health(); h.ServerErrors > 0 || h.Other > 0 {
		t.Fatalf("health = %+v, want clean 2xx/503 split", h)
	}
}

func TestDrillNodeFailureStorm(t *testing.T) {
	r := drill(t, "node_failure_storm", Options{})
	h := r.Health()
	if h.Degraded == 0 {
		t.Fatalf("health = %+v: the outage never forced a stale serve", h)
	}
	if h.ServerErrors > 0 {
		t.Fatalf("health = %+v: page-level 5xx during the storm", h)
	}
	if stats := r.Server.PushScheduler().Stats(); stats.Refreshes == 0 {
		t.Fatalf("push stats = %+v: the registered source never refreshed", stats)
	}
}

func TestDrillPowerCycle(t *testing.T) {
	r := drill(t, "power_cycle", Options{})
	if len(r.Covered) == 0 {
		t.Fatal("no nodes were powered down")
	}
	if got := r.Env.Cluster.Ctl.Power(); got.AutoWakes == 0 {
		t.Fatalf("power stats = %+v, want at least one auto-wake", got)
	}
}

func TestDrillJobArrayStorm(t *testing.T) {
	r := drill(t, "job_array_storm", Options{})
	if len(r.JobIDs) == 0 {
		t.Fatal("no arrays were submitted")
	}
}

func TestDrillAccountingBackfill(t *testing.T) {
	r := drill(t, "accounting_backfill", Options{})
	// The injected sacct latency must have been absorbed by the simulated
	// clock, not hidden: at least one dbd fill went through the gate.
	var sawDBD bool
	for _, st := range r.Server.FillStats() {
		if st.Source == "slurmdbd" && st.Peak >= 1 {
			sawDBD = true
		}
	}
	if !sawDBD {
		t.Fatal("no slurmdbd fill crossed the admission gate")
	}
}

func TestDrillLoginRush(t *testing.T) {
	// A tight cap makes the stampede bite: 300 cold users cannot all fill at
	// once, so the gate must reject the overflow as retriable 503s while the
	// server never drops a 500. The fill gate bounds WALL-time concurrency,
	// so this one drill gives the scenario's injected command stall real
	// wall duration (every other drill keeps the simulated-clock sleep);
	// the admitted fills' real stalls are also what makes the latency
	// ticket fire. Total added wall time stays around a second.
	r := drill(t, "login_rush", Options{FillCap: 8, Sleep: time.Sleep})
	h := r.Health()
	if h.Rejected == 0 {
		t.Fatalf("health = %+v: a 300-user stampede against cap 8 rejected nothing", h)
	}
	if h.OK == 0 {
		t.Fatalf("health = %+v: nobody got through the rush", h)
	}
}

// TestDrillCatalogAtSeed7 replays every scenario at seed 7, the seed the
// open-loop gate uses; drill fails unless each scenario's Check, Verify and
// alert expectations hold. login_rush runs as its own drill does.
func TestDrillCatalogAtSeed7(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			opts := Options{Seed: 7}
			if name == "login_rush" {
				opts.FillCap, opts.Sleep = 8, time.Sleep
			}
			drill(t, name, opts)
		})
	}
}

// TestSLOChaosAlertGates pins the per-scenario alerting contract directly
// (Execute already enforces each scenario's AlertExpectation; this test
// asserts the counts themselves so a gate regression cannot hide behind an
// accidentally-empty expectation).
func TestSLOChaosAlertGates(t *testing.T) {
	// The storm fires the availability page and resolves it after recovery;
	// the latency ticket stays silent.
	storm := drill(t, "node_failure_storm", Options{})
	fired, resolved, ok := storm.Server.SLO().AlertCounts("availability", "page")
	if !ok || fired < 1 || resolved < 1 {
		t.Fatalf("storm availability/page fired=%d resolved=%d ok=%t, want both >= 1", fired, resolved, ok)
	}
	if fired, _, _ := storm.Server.SLO().AlertCounts("latency", "ticket"); fired != 0 {
		t.Fatalf("storm latency/ticket fired %d time(s), want 0", fired)
	}

	// The rush fires the latency ticket but never the availability page:
	// 503 backpressure is excluded from the availability SLI by design.
	rush := drill(t, "login_rush", Options{FillCap: 8, Sleep: time.Sleep})
	if fired, _, ok := rush.Server.SLO().AlertCounts("latency", "ticket"); !ok || fired < 1 {
		t.Fatalf("rush latency/ticket fired=%d ok=%t, want >= 1", fired, ok)
	}
	if fired, _, _ := rush.Server.SLO().AlertCounts("availability", "page"); fired != 0 {
		t.Fatalf("rush availability/page fired %d time(s), want 0", fired)
	}

	// A quiet scenario ends with zero lifetime fires on every rule.
	quiet := drill(t, "maintenance_drain", Options{})
	for _, o := range quiet.Server.SLO().Status().Objectives {
		for _, a := range o.Alerts {
			if a.Fired != 0 {
				t.Fatalf("quiet drill fired %s/%s %d time(s)", o.Name, a.Rule, a.Fired)
			}
		}
	}
}
