package core_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"ooddash/internal/core"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/workload"
)

// historySpans are the named My Jobs ranges: 24h, 7d and 30d share the 30d
// fill; 90d and 1y are their own classes. All three classes are split into
// closed days and a live part.
var historySpans = []struct {
	name string
	span time.Duration
}{
	{"24h", 24 * time.Hour},
	{"7d", 7 * 24 * time.Hour},
	{"30d", 30 * 24 * time.Hour},
	{"90d", 90 * 24 * time.Hour},
	{"1y", 365 * 24 * time.Hour},
}

// TestHistoryClosedDaysMatchDirectSacct is the closed-day property test.
// Over generated histories, on the CLI and the REST backend, a server runs
// a sequence of fills at increasing instants, each more than one TTL after
// the last, while records arrive in between: jobs that cross midnight, a
// midnight rollover between two fills, a record inserted with an end time
// on an already closed day, and a job whose terminal record on a closed day
// is replaced by a pending one, as a requeue does. At every fill, for
// every account set and every range from 24h to 1y:
//   - the table equals a direct sacct of [asOf − span, asOf], converted and
//     ordered the way the fill does it;
//   - the table, the charts and the CSV export equal, byte for byte, what a
//     fresh server serves at the same instant from one whole-window sacct.
//
// Every fill after the first reads its count snapshot fresh, so the late
// record is exact too (TestHistoryLateRecordWithinOneTTL covers the
// exception). The warm server must also have carried closed days over: its
// fills ship fewer slurmdbd records than the fresh server's.
func TestHistoryClosedDaysMatchDirectSacct(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := workload.SmallSpec()
			spec.Seed = seed
			env, err := workload.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			env.SynthesizeHistory(0, 600)
			news := httptest.NewServer(env.Feed)
			defer news.Close()

			// A long stale grace keeps each fill retained across the
			// day-long gaps below; the contract does not depend on it.
			cfgFor := func(mode string) core.Config {
				cfg := core.Config{Backend: core.BackendConfig{Slurmctld: mode, Slurmdbd: mode}}
				cfg.Resilience.StaleFor = 72 * time.Hour
				return cfg
			}
			newServer := func(mode string) *core.Server {
				s, err := env.NewServerRunner(news.URL, cfgFor(mode), env.Runner)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				return s
			}
			if err := env.ProvisionREST(slurmrest.Options{}); err != nil {
				t.Fatal(err)
			}
			restClient := slurmrest.NewClient(env.REST, env.RESTTokens.Dashboard)
			backends := []struct {
				mode   string
				server *core.Server
				sacct  func(slurmcli.SacctOptions) ([]slurmcli.SacctRow, error)
			}{
				{core.BackendCLI, newServer(core.BackendCLI), func(o slurmcli.SacctOptions) ([]slurmcli.SacctRow, error) {
					return slurmcli.Sacct(env.Runner, o)
				}},
				{core.BackendREST, newServer(core.BackendREST), func(o slurmcli.SacctOptions) ([]slurmcli.SacctRow, error) {
					return restClient.Sacct(context.Background(), o)
				}},
			}

			// One viewer for each of three account sets: fills and renders
			// are per set.
			var viewers []string
			seen := make(map[string]bool)
			for _, user := range env.UserNames {
				u, _ := env.Users.Lookup(user)
				if set := fmt.Sprint(u.Accounts); !seen[set] && len(viewers) < 3 {
					seen[set] = true
					viewers = append(viewers, user)
				}
			}
			dbd := env.Cluster.DBD.Stats()
			var warmRecords, freshRecords int64
			check := func(step string) {
				t.Helper()
				asOf := env.Clock.Now().Truncate(time.Second)
				for _, b := range backends {
					fresh := newServer(b.mode)
					for _, user := range viewers {
						u, _ := env.Users.Lookup(user)
						for _, r := range historySpans {
							rows, err := b.sacct(slurmcli.SacctOptions{
								Accounts: u.Accounts, AllUsers: true,
								Start: asOf.Add(-r.span), End: asOf,
							})
							if err != nil {
								t.Fatal(err)
							}
							want := myJobsBody(t, rows, asOf)
							for _, path := range []string{
								"/api/myjobs?range=" + r.name,
								"/api/myjobs/charts?range=" + r.name,
								"/api/myjobs/export.csv?range=" + r.name,
							} {
								before := dbd.Records()
								got := serveBody(t, b.server, user, path)
								warmRecords += dbd.Records() - before
								before = dbd.Records()
								ref := serveBody(t, fresh, user, path)
								freshRecords += dbd.Records() - before
								if string(got) != string(ref) {
									t.Fatalf("%s: %s %s as %s:\n got %s\nwant %s", step, b.mode, path, user, got, ref)
								}
							}
							if got := serveBody(t, b.server, user, "/api/myjobs?range="+r.name); string(got) != string(want) {
								t.Fatalf("%s: %s range %s as %s differs from a direct sacct:\n got %s\nwant %s",
									step, b.mode, r.name, user, got, want)
							}
						}
					}
				}
			}
			// run advances the cluster by d, ticking every ten minutes.
			run := func(d time.Duration) {
				for d > 0 {
					step := min(d, 10*time.Minute)
					env.Clock.Advance(step)
					env.Cluster.Ctl.Tick()
					d -= step
				}
			}
			submit := func(name string, i int, dur time.Duration) slurm.JobID {
				user := env.UserNames[i%len(env.UserNames)]
				u, _ := env.Users.Lookup(user)
				id, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
					Name: name, User: user, Account: u.Accounts[0], Partition: "cpu", QOS: "normal",
					ReqTRES: slurm.TRES{CPUs: 2, MemMB: 2048}, TimeLimit: 48 * time.Hour,
					Profile: slurm.UsageProfile{ActualDuration: dur, CPUUtilization: 0.7, MemUtilization: 0.4},
				})
				if err != nil {
					t.Fatal(err)
				}
				return id
			}
			terminal := func(id slurm.JobID, name string, i int, end time.Time) *slurm.Job {
				user := env.UserNames[i%len(env.UserNames)]
				u, _ := env.Users.Lookup(user)
				tres := slurm.TRES{CPUs: 4, MemMB: 4096, Nodes: 1}
				j := &slurm.Job{
					ID: id, Name: name, User: user, Account: u.Accounts[0], Partition: "cpu", QOS: "normal",
					State: slurm.StateCompleted, SubmitTime: end.Add(-3 * time.Hour), StartTime: end.Add(-2 * time.Hour),
					EndTime: end, TimeLimit: 4 * time.Hour, ReqTRES: tres, AllocTRES: tres,
				}
				j.Profile.CPUUtilization, j.Profile.MemUtilization = 0.6, 0.5
				return j
			}
			midnight := func() time.Time { return env.Clock.Now().Truncate(24 * time.Hour).Add(24 * time.Hour) }

			check("cold")

			// Jobs that cross midnight: submitted an hour before it, running
			// two and three hours, checked just before and after the
			// rollover.
			run(midnight().Add(-time.Hour).Sub(env.Clock.Now()))
			for i := 0; i < 4; i++ {
				submit(fmt.Sprintf("across-midnight-%d", i), i, time.Duration(2+i%2)*time.Hour)
			}
			run(50 * time.Minute)
			check("before midnight")
			run(20 * time.Minute)
			check("after midnight")

			// A record inserted with an end time on an already closed day.
			late := terminal(slurm.JobID(1<<29), "late-record", 5, env.Clock.Now().Add(-5*24*time.Hour))
			if env.Cluster.DBD.Backfill([]*slurm.Job{late}) != 1 {
				t.Fatal("late record not inserted")
			}
			run(3 * time.Minute)
			check("late record")

			// A job terminal on a closed day comes back pending under the
			// same ID: the next controller ID is recorded as finished three
			// days ago, then a submission takes that ID over.
			probe := submit("probe", 6, time.Hour)
			requeued := terminal(probe+1, "requeued", 7, env.Clock.Now().Add(-3*24*time.Hour))
			if env.Cluster.DBD.Backfill([]*slurm.Job{requeued}) != 1 {
				t.Fatal("requeue fixture not inserted")
			}
			run(3 * time.Minute)
			check("finished on a closed day")
			run(time.Second) // a submission second of its own
			if id := submit("requeued-again", 7, 5*time.Hour); id != probe+1 {
				t.Fatalf("fixture: submission got ID %d, want %d", id, probe+1)
			}
			run(3 * time.Minute)
			check("requeued")

			// A day and a half of ticking: two rollovers, so days the last
			// fill held as yesterday and today are closed now.
			run(36 * time.Hour)
			check("two rollovers")

			if warmRecords >= freshRecords {
				t.Fatalf("warm fills shipped %d slurmdbd records, fresh whole-window fills %d: no closed day was carried over",
					warmRecords, freshRecords)
			}
		})
	}
}
