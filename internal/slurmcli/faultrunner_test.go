package slurmcli

import (
	"errors"
	"testing"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/slurm"
)

// echoRunner is a trivial inner Runner recording calls.
type echoRunner struct{ calls int }

func (e *echoRunner) Run(name string, args ...string) (string, error) {
	e.calls++
	return "out:" + name, nil
}

func TestFaultRunnerOutage(t *testing.T) {
	inner := &echoRunner{}
	fr := NewFaultRunner(inner, 1, func(time.Duration) {})
	fr.SetRules(FaultRule{Command: "squeue", Outage: true})

	if _, err := fr.Run("squeue"); !errors.Is(err, slurm.ErrUnavailable) {
		t.Fatalf("outage err = %v, want ErrUnavailable", err)
	}
	if inner.calls != 0 {
		t.Fatal("outage still reached the inner runner")
	}
	// Other commands are untouched.
	if out, err := fr.Run("sacct"); err != nil || out != "out:sacct" {
		t.Fatalf("sacct = %q %v", out, err)
	}

	// Clearing the rules restores service.
	fr.SetRules()
	if out, err := fr.Run("squeue"); err != nil || out != "out:squeue" {
		t.Fatalf("post-recovery squeue = %q %v", out, err)
	}
}

func TestFaultRunnerErrorRateIsDeterministic(t *testing.T) {
	run := func() []bool {
		fr := NewFaultRunner(&echoRunner{}, 42, func(time.Duration) {})
		fr.SetRules(FaultRule{ErrorRate: 0.5})
		var fails []bool
		for i := 0; i < 50; i++ {
			_, err := fr.Run("sinfo")
			fails = append(fails, err != nil)
		}
		return fails
	}
	first, second := run(), run()
	var failed int
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("same seed produced a different fault sequence")
		}
		if first[i] {
			failed++
		}
	}
	if failed == 0 || failed == 50 {
		t.Fatalf("0.5 error rate failed %d of 50 calls", failed)
	}
}

func TestFaultRunnerBurst(t *testing.T) {
	fr := NewFaultRunner(&echoRunner{}, 1, func(time.Duration) {})
	fr.SetRules(FaultRule{Command: "sdiag", BurstLen: 2, BurstEvery: 5})
	var got []bool
	for i := 0; i < 10; i++ {
		_, err := fr.Run("sdiag")
		got = append(got, err != nil)
	}
	want := []bool{true, true, false, false, false, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("burst pattern = %v, want %v", got, want)
		}
	}
}

func TestFaultRunnerLatencyChargesSleepHook(t *testing.T) {
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	fr := NewFaultRunner(&echoRunner{}, 1, clock.Sleep)
	fr.SetRules(FaultRule{Latency: 150 * time.Millisecond, LatencyJitter: 50 * time.Millisecond})

	before := clock.Now()
	if _, err := fr.Run("squeue"); err != nil {
		t.Fatal(err)
	}
	slept := clock.Now().Sub(before)
	if slept < 150*time.Millisecond || slept > 200*time.Millisecond {
		t.Fatalf("slept %v, want within [150ms, 200ms]", slept)
	}

	sts := fr.Stats()
	if len(sts) != 1 || sts[0].Command != "squeue" || sts[0].Calls != 1 || sts[0].SleptFor != slept {
		t.Fatalf("stats = %+v (slept %v)", sts, slept)
	}
}

func TestFaultRunnerFirstRuleWins(t *testing.T) {
	fr := NewFaultRunner(&echoRunner{}, 1, func(time.Duration) {})
	fr.SetRules(
		FaultRule{Command: "squeue"}, // no-fault override for squeue
		FaultRule{Outage: true},      // everything else is down
	)
	if _, err := fr.Run("squeue"); err != nil {
		t.Fatalf("squeue should be exempted: %v", err)
	}
	if _, err := fr.Run("sacct"); !errors.Is(err, slurm.ErrUnavailable) {
		t.Fatalf("sacct err = %v, want ErrUnavailable", err)
	}
	sts := fr.Stats()
	if len(sts) != 2 {
		t.Fatalf("stats = %+v", sts)
	}
	if sts[0].Command != "sacct" || sts[0].Faults != 1 || sts[1].Command != "squeue" || sts[1].Faults != 0 {
		t.Fatalf("stats = %+v", sts)
	}
}
