package slurmcli

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/slurm"
)

// finishRollupJobs runs a couple of jobs to completion so the rollup store
// has terminal history, and returns an hour-aligned window covering it.
func finishRollupJobs(t testing.TB, cl *slurm.Cluster, clock *clock.Sim) (start, end int64) {
	t.Helper()
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "roll-a", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 8 * 1024},
		Profile: slurm.UsageProfile{ActualDuration: 30 * time.Minute},
	})
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "roll-c", User: "carol", Account: "lab-b", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 4 * 1024},
		Profile: slurm.UsageProfile{ActualDuration: 45 * time.Minute, FailureState: slurm.StateFailed, ExitCode: 9},
	})
	cl.Ctl.Tick()
	clock.Advance(2 * time.Hour)
	cl.Ctl.Tick()
	now := clock.Now().Unix()
	start = now - 24*3600
	start -= start % 3600
	end = now + 3600
	end -= end % 3600
	return start, end
}

// TestSreportRollupTypedRoundTrip pins the CLI wire: rows parsed back from
// the sreport rollup text format are exactly the daemon's rows — the
// transport is all-integer, so nothing can drift.
func TestSreportRollupTypedRoundTrip(t *testing.T) {
	r, cl, clock := newTestRunner(t)
	start, end := finishRollupJobs(t, cl, clock)

	for _, scope := range []string{slurm.RollupScopeTotal, slurm.RollupScopeUser} {
		res, err := SreportRollup(r, RollupOptions{
			Scope: scope, Start: start, End: end, Resolution: slurm.RollupHour,
		})
		if err != nil {
			t.Fatalf("%s: %v", scope, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows; jobs never reached the rollup store", scope)
		}
		want := cl.DBD.RollupQuery(scope, "", start, end, slurm.RollupHour)
		if !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("%s: parsed rows != daemon rows\nparsed: %+v\ndaemon: %+v", scope, res.Rows, want)
		}
	}

	// A narrowed series only carries its own name.
	res, err := SreportRollup(r, RollupOptions{
		Scope: slurm.RollupScopeUser, Name: "carol",
		Start: start, End: end, Resolution: slurm.RollupHour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Name != "carol" || row.Failed != 1 {
			t.Errorf("carol series row = %+v", row)
		}
	}
}

func TestSreportRollupBounds(t *testing.T) {
	r, cl, clock := newTestRunner(t)

	// No history yet: the bounds op reports none rather than zeros.
	res, err := SreportRollup(r, RollupOptions{Scope: slurm.RollupScopeTotal, Op: "bounds"})
	if err != nil {
		t.Fatal(err)
	}
	if res.HasBounds {
		t.Fatalf("bounds before any terminal job: %+v", res)
	}

	finishRollupJobs(t, cl, clock)
	res, err = SreportRollup(r, RollupOptions{Scope: slurm.RollupScopeTotal, Op: "bounds"})
	if err != nil {
		t.Fatal(err)
	}
	minEnd, maxEnd, ok := cl.DBD.RollupBounds(slurm.RollupScopeTotal, "")
	if !ok || !res.HasBounds {
		t.Fatalf("bounds missing: daemon ok=%v parsed=%+v", ok, res)
	}
	if res.MinEnd != minEnd || res.MaxEnd != maxEnd {
		t.Errorf("bounds = [%d, %d], want [%d, %d]", res.MinEnd, res.MaxEnd, minEnd, maxEnd)
	}
}

// TestSreportRollupValidation pins the command's argument errors.
func TestSreportRollupValidation(t *testing.T) {
	r, _, _ := newTestRunner(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"cluster", "Rollup", "scope=galaxy", "start=0", "end=3600", "resolution=3600"}, "bad scope"},
		{[]string{"cluster", "Rollup", "scope=total", "start=0", "end=3600", "resolution=123"}, "bad resolution"},
		{[]string{"cluster", "Rollup", "scope=total", "start=0", "end=3600"}, "bad resolution"},
		{[]string{"cluster", "Rollup", "scope=total", "op=frobnicate", "start=0", "end=3600", "resolution=3600"}, "unknown op"},
		{[]string{"cluster", "Rollup", "scope=total", "--wide"}, "unknown option"},
	}
	for _, c := range cases {
		_, err := r.Run("sreport", c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("sreport %v: err = %v, want %q", c.args, err, c.want)
		}
	}
}
