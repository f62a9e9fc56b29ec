package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
	"ooddash/internal/efficiency"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/workload"
)

// derivedSpans are the ranges served from the shared 30d history fill.
var derivedSpans = []struct {
	name string
	span time.Duration
}{
	{"24h", 24 * time.Hour},
	{"7d", 7 * 24 * time.Hour},
	{"30d", 30 * 24 * time.Hour},
}

// TestHistoryDerivedWindowsMatchDirectSacct is the derive rule's property
// test. Over generated histories (SmallSpec seeds plus two synthesized
// years, plus edge cases around every window start), each My Jobs range up
// to 30 days that the server derives from its shared 30d fill equals the
// rows of a direct sacct of [asOf − span, asOf] converted the same way, on
// the CLI and the REST backend alike, and the two backends serve the same
// bytes. It checks again inside the TTL, when the rows come from the cached
// fill while the cluster has moved on.
func TestHistoryDerivedWindowsMatchDirectSacct(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := workload.SmallSpec()
			spec.Seed = seed
			env, err := workload.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			env.SynthesizeHistory(0, 3000)
			asOf := seedHistoryEdges(t, env)

			news := httptest.NewServer(env.Feed)
			defer news.Close()
			cli, err := env.NewServerRunner(news.URL, core.Config{}, env.Runner)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			rest, err := env.NewServerRunner(news.URL, core.Config{Backend: core.BackendConfig{
				Slurmctld: core.BackendREST, Slurmdbd: core.BackendREST,
			}}, env.Runner)
			if err != nil {
				t.Fatal(err)
			}
			defer rest.Close()
			restClient := slurmrest.NewClient(env.REST, env.RESTTokens.Dashboard)
			backends := []struct {
				name   string
				server *core.Server
				sacct  func(slurmcli.SacctOptions) ([]slurmcli.SacctRow, error)
			}{
				{"cli", cli, func(o slurmcli.SacctOptions) ([]slurmcli.SacctRow, error) {
					return slurmcli.Sacct(env.Runner, o)
				}},
				{"rest", rest, func(o slurmcli.SacctOptions) ([]slurmcli.SacctRow, error) {
					return restClient.Sacct(context.Background(), o)
				}},
			}

			// References first, at the fill instant: a direct sacct per
			// user, backend and window. seen records which edge jobs and
			// states each window holds, so the fixture is known to sit on
			// both sides of every boundary.
			want := make(map[string][]byte)
			seen := make(map[string]bool)
			for _, user := range env.UserNames {
				u, _ := env.Users.Lookup(user)
				for _, b := range backends {
					for _, d := range derivedSpans {
						rows, err := b.sacct(slurmcli.SacctOptions{
							Accounts: u.Accounts, AllUsers: true,
							Start: asOf.Add(-d.span), End: asOf,
						})
						if err != nil {
							t.Fatal(err)
						}
						want[b.name+"/"+user+"/"+d.name] = myJobsBody(t, rows, asOf)
						for _, row := range rows {
							seen[d.name+"/"+row.Name] = true
							seen[d.name+"/"+string(row.State)] = true
						}
					}
				}
			}
			for _, c := range []struct {
				entry string
				in    bool
			}{
				{"24h/edge-on-24h", true}, {"24h/edge-frac-after-24h", true},
				{"24h/edge-1s-before-24h", false}, {"24h/edge-frac-before-24h", false},
				{"30d/edge-on-30d", true}, {"30d/edge-frac-before-30d", false},
				{"24h/edge-cancelled-late", true}, {"24h/edge-cancelled-early", false},
				{"7d/edge-cancelled-early", true},
				{"24h/RUNNING", true}, {"24h/PENDING", true},
			} {
				if seen[c.entry] != c.in {
					t.Fatalf("fixture: %s present = %v, want %v", c.entry, seen[c.entry], c.in)
				}
			}

			check := func(suffix string) {
				t.Helper()
				for i, user := range env.UserNames {
					for k := range derivedSpans {
						// Rotate which range opens each user's fill.
						d := derivedSpans[(i+k)%len(derivedSpans)]
						path := "/api/myjobs?range=" + d.name + suffix
						var bodies [2][]byte
						for j, b := range backends {
							bodies[j] = serveBody(t, b.server, user, path)
							if w := want[b.name+"/"+user+"/"+d.name]; string(bodies[j]) != string(w) {
								t.Fatalf("%s %s as %s:\n got %s\nwant %s", b.name, path, user, bodies[j], w)
							}
						}
						if string(bodies[0]) != string(bodies[1]) {
							t.Fatalf("%s as %s: cli and rest bodies differ", path, user)
						}
					}
				}
			}
			check("")
			// Inside the TTL the cluster moves on, but every range still
			// derives from the same fill; a new URI forces a fresh derive
			// rather than a rendered-cache hit.
			env.Clock.Advance(61 * time.Second)
			env.Cluster.Ctl.Tick()
			check("&offset=0")
		})
	}
}

// seedHistoryEdges adds the cases the derive rule must get right and
// returns the instant the next history fill will be taken at: a job still
// pending, one running, pending jobs cancelled before and after the 24h
// start, and around each window's start terminal jobs ending exactly on
// it, one second and a fraction of a second either side, and two crossing
// midnight.
func seedHistoryEdges(t *testing.T, env *workload.Env) time.Time {
	t.Helper()
	submit := func(name string, i int, hold bool, run time.Duration) slurm.JobID {
		user := env.UserNames[i%len(env.UserNames)]
		u, _ := env.Users.Lookup(user)
		id, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
			Name: name, User: user, Account: u.Accounts[0], Partition: "cpu", QOS: "normal",
			ReqTRES: slurm.TRES{CPUs: 2, MemMB: 2048}, TimeLimit: 48 * time.Hour, Hold: hold,
			Profile: slurm.UsageProfile{ActualDuration: run, CPUUtilization: 0.7, MemUtilization: 0.4},
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Cluster.Ctl.Tick()
		return id
	}
	cancel := func(id slurm.JobID) {
		if err := env.Cluster.Ctl.Cancel(id, "root"); err != nil {
			t.Fatal(err)
		}
	}
	cancel(submit("edge-cancelled-early", 0, true, time.Hour))
	env.Clock.Advance(25*time.Hour + 1700*time.Millisecond)
	env.Cluster.Ctl.Tick()
	cancel(submit("edge-cancelled-late", 1, true, time.Hour))
	submit("edge-pending", 2, true, time.Hour)
	submit("edge-running", 3, false, 40*time.Hour)
	env.Clock.Advance(20 * time.Minute)
	env.Cluster.Ctl.Tick()

	asOf := env.Clock.Now().Truncate(time.Second)
	var jobs []*slurm.Job
	add := func(name string, end time.Time, dur time.Duration) {
		if end.After(asOf) {
			return
		}
		i := len(jobs)
		user := env.UserNames[i%len(env.UserNames)]
		u, _ := env.Users.Lookup(user)
		tres := slurm.TRES{CPUs: 4, MemMB: 4096, Nodes: 1}
		j := &slurm.Job{
			ID: slurm.JobID(1<<29 + i), Name: name, User: user, Account: u.Accounts[i%len(u.Accounts)],
			Partition: "cpu", QOS: "normal", State: slurm.StateCompleted,
			SubmitTime: end.Add(-dur - 5*time.Minute), StartTime: end.Add(-dur), EndTime: end,
			TimeLimit: dur + time.Hour, ReqTRES: tres, AllocTRES: tres,
		}
		j.Profile.CPUUtilization, j.Profile.MemUtilization = 0.6, 0.5
		jobs = append(jobs, j)
	}
	for _, d := range derivedSpans {
		start := asOf.Add(-d.span)
		add("edge-on-"+d.name, start, time.Hour)
		add("edge-1s-before-"+d.name, start.Add(-time.Second), time.Hour)
		add("edge-1s-after-"+d.name, start.Add(time.Second), time.Hour)
		add("edge-frac-before-"+d.name, start.Add(-300*time.Millisecond), time.Hour)
		add("edge-frac-after-"+d.name, start.Add(300*time.Millisecond), time.Hour)
		midnight := start.Truncate(24 * time.Hour)
		add("edge-midnight-"+d.name, midnight.Add(time.Hour), 2*time.Hour)
		add("edge-next-midnight-"+d.name, midnight.Add(25*time.Hour), 2*time.Hour)
	}
	if added := env.Cluster.DBD.Backfill(jobs); added != len(jobs) {
		t.Fatalf("backfilled %d of %d edge jobs", added, len(jobs))
	}
	return asOf
}

// myJobsBody is the My Jobs body for rows of a direct sacct: converted as
// of asOf, newest submission first, unfiltered and unpaged.
func myJobsBody(t *testing.T, rows []slurmcli.SacctRow, asOf time.Time) []byte {
	t.Helper()
	return myJobsPage(t, directJobRows(rows, asOf), "", nil)
}

// myJobsPage is the My Jobs body for the converted rows of a direct sacct
// (directJobRows), filtered and paged as the query q asks of viewer,
// encoded by reflection from a MyJobsResponse: the body the table served
// before its rows were stored encoded.
func myJobsPage(t *testing.T, rows []core.JobRow, viewer string, q url.Values) []byte {
	t.Helper()
	var resp core.MyJobsResponse
	for _, jr := range rows {
		resp.Total++
		if keepJobRow(jr, viewer, q) {
			resp.Jobs = append(resp.Jobs, jr)
		}
	}
	resp.Matched = len(resp.Jobs)
	offset, _ := strconv.Atoi(q.Get("offset"))
	limit, _ := strconv.Atoi(q.Get("limit"))
	resp.Offset = min(offset, len(resp.Jobs))
	resp.Jobs = resp.Jobs[resp.Offset:]
	if limit > 0 && len(resp.Jobs) > limit {
		resp.Jobs = resp.Jobs[:limit]
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// directJobRows converts the rows of a direct sacct as of asOf, newest
// submission first.
func directJobRows(rows []slurmcli.SacctRow, asOf time.Time) []core.JobRow {
	th := efficiency.DefaultThresholds()
	var out []core.JobRow
	for i := range rows {
		out = append(out, core.JobRowFromSacct(&rows[i], asOf, th))
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].SubmitTime.After(out[j].SubmitTime)
	})
	return out
}

// keepJobRow reports whether the table's filters in q keep jr for viewer:
// state (any case), user, account and mine=1.
func keepJobRow(jr core.JobRow, viewer string, q url.Values) bool {
	state, user, account := q.Get("state"), q.Get("user"), q.Get("account")
	return (q.Get("mine") != "1" || jr.User == viewer) &&
		(user == "" || jr.User == user) &&
		(account == "" || jr.Account == account) &&
		(state == "" || jr.State == strings.ToUpper(state))
}

// serveBody runs one GET as user through the server and returns the 200
// body.
func serveBody(t *testing.T, s *core.Server, user, path string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set(auth.UserHeader, user)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s as %s: status %d: %s", path, user, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}
