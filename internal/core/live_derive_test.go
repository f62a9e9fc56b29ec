package core_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/workload"
)

// TestLiveViewsMatchDirectQueries is the live-queue snapshot's property
// test. Over generated clusters (SmallSpec seeds 1–3, plus a user with more
// than RecentJobsLimit jobs in mixed states, terminal ones included, a
// user with no jobs, and an account holding a suspended job), every view
// the server filters from its one live-queue fill, its one association
// fill and its one node-table fill equals, at one instant and on the CLI
// and the REST backend alike, the per-principal or per-node query it
// replaced, rendered the same way:
//
//   - /api/recent_jobs: squeue -u <user> -t all --limit N;
//   - /api/accounts and both exports: scontrol show assoc account=<a> plus
//     squeue -A <a> per account;
//   - /api/node/{n}/jobs: squeue -t R, filtered to node n;
//   - /api/node/{n}: scontrol show node <n>.
//
// It checks a second instant after the queue moved past the TTL.
func TestLiveViewsMatchDirectQueries(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := workload.SmallSpec()
			spec.Seed = seed
			env, err := workload.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			seedLiveEdges(t, env)

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
				squeue func(slurmcli.SqueueOptions) ([]slurmcli.QueueEntry, error)
			}{
				{"cli", cli, func(o slurmcli.SqueueOptions) ([]slurmcli.QueueEntry, error) {
					return slurmcli.Squeue(env.Runner, o)
				}},
				{"rest", rest, func(o slurmcli.SqueueOptions) ([]slurmcli.QueueEntry, error) {
					return restClient.Squeue(context.Background(), o)
				}},
			}
			cfg := cli.Config()

			check := func(instant string) {
				t.Helper()
				// References first, then the served views, all at one
				// instant (nothing below moves the clock).
				want := make(map[string][]byte)
				for _, b := range backends {
					for _, user := range env.UserNames {
						u, _ := env.Users.Lookup(user)
						rows, err := b.squeue(slurmcli.SqueueOptions{User: user, AllStates: true, Limit: cfg.RecentJobsLimit})
						if err != nil {
							t.Fatal(err)
						}
						want[b.name+user+"/api/recent_jobs"] = recentJobsBody(t, rows)
						var usages []accountView
						for _, account := range u.Accounts {
							assocs, err := slurmcli.ShowAssocs(env.Runner, account, "")
							if err != nil {
								t.Fatal(err)
							}
							queue, err := b.squeue(slurmcli.SqueueOptions{Account: account})
							if err != nil {
								t.Fatal(err)
							}
							v := perAccountView(account, assocs, queue)
							usages = append(usages, v)
							want[b.name+user+"/api/accounts/"+account+"/export.csv"] = v.csv(t)
							want[b.name+user+"/api/accounts/"+account+"/export.xlsx"] = v.xlsx(t)
						}
						want[b.name+user+"/api/accounts"] = accountsBody(t, usages, cfg.UserGuideURL)
					}
					running, err := b.squeue(slurmcli.SqueueOptions{States: []slurm.JobState{slurm.StateRunning}})
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range env.Cluster.Ctl.Nodes() {
						want[b.name+"/api/node/"+n.Name+"/jobs"] = nodeJobsBody(t, n.Name, running)
					}
				}
				for _, n := range env.Cluster.Ctl.Nodes() {
					d, err := slurmcli.ShowNode(env.Runner, n.Name)
					if err != nil {
						t.Fatal(err)
					}
					want["/api/node/"+n.Name] = marshalBody(t, core.NodeOverviewFrom(d))
				}
				for _, user := range env.UserNames {
					u, _ := env.Users.Lookup(user)
					paths := []string{"/api/recent_jobs", "/api/accounts"}
					for _, account := range u.Accounts {
						paths = append(paths, "/api/accounts/"+account+"/export.csv", "/api/accounts/"+account+"/export.xlsx")
					}
					for _, path := range paths {
						var bodies [2][]byte
						for i, b := range backends {
							bodies[i] = serveBody(t, b.server, user, path)
							if w := want[b.name+user+path]; !bytes.Equal(bodies[i], w) {
								t.Fatalf("%s: %s %s as %s:\n got %s\nwant %s", instant, b.name, path, user, bodies[i], w)
							}
						}
						if !bytes.Equal(bodies[0], bodies[1]) {
							t.Fatalf("%s: %s as %s: cli and rest bodies differ", instant, path, user)
						}
					}
				}
				for _, n := range env.Cluster.Ctl.Nodes() {
					path := "/api/node/" + n.Name + "/jobs"
					for _, b := range backends {
						if got, w := serveBody(t, b.server, env.UserNames[0], path), want[b.name+path]; !bytes.Equal(got, w) {
							t.Fatalf("%s: %s %s:\n got %s\nwant %s", instant, b.name, path, got, w)
						}
					}
					path = "/api/node/" + n.Name
					for _, b := range backends {
						if got, w := serveBody(t, b.server, env.UserNames[0], path), want[path]; !bytes.Equal(got, w) {
							t.Fatalf("%s: %s %s:\n got %s\nwant %s", instant, b.name, path, got, w)
						}
					}
				}
			}
			check("first instant")
			env.SubmitRandom(rand.New(rand.NewSource(seed)), 20)
			env.Clock.Advance(61 * time.Second)
			env.Cluster.Ctl.Tick()
			check("after the TTL")
		})
	}
}

// seedLiveEdges adds the fixture cases and checks that the live queue
// holds them: the first user gets more than RecentJobsLimit jobs — held
// (pending), running, one suspended, short ones that finish and one
// cancelled — and "quiet" joins the first user's groups with no jobs.
func seedLiveEdges(t *testing.T, env *workload.Env) {
	t.Helper()
	busy := env.UserNames[0]
	u, _ := env.Users.Lookup(busy)
	env.Users.AddUser(auth.User{Name: "quiet", Accounts: u.Accounts})
	env.UserNames = append(env.UserNames, "quiet")
	var ids []slurm.JobID
	for i := 0; i < 12; i++ {
		run := 40 * time.Hour
		if i%4 == 3 {
			run = time.Minute
		}
		id, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
			Name: fmt.Sprintf("busy-%02d", i), User: busy, Account: u.Accounts[0], Partition: "cpu",
			QOS: "normal", ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, TimeLimit: 48 * time.Hour,
			Hold:    i%4 == 1,
			Profile: slurm.UsageProfile{ActualDuration: run, CPUUtilization: 0.5, MemUtilization: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	env.Cluster.Ctl.Tick()
	if err := env.Cluster.Ctl.Cancel(ids[5], "root"); err != nil {
		t.Fatal(err)
	}
	env.Clock.Advance(5 * time.Minute)
	env.Cluster.Ctl.Tick()
	suspended := false
	for _, id := range ids {
		if j := env.Cluster.Ctl.Job(id); j != nil && j.State == slurm.StateRunning {
			if err := env.Cluster.Ctl.Suspend(id, "root"); err != nil {
				t.Fatal(err)
			}
			suspended = true
			break
		}
	}
	if !suspended {
		t.Fatal("fixture: no running job to suspend")
	}
	states := map[slurm.JobState]int{}
	for _, j := range env.Cluster.Ctl.Jobs(slurm.LiveJobFilter{User: busy}) {
		states[j.State]++
	}
	total := 0
	for _, n := range states {
		total += n
	}
	if total <= 8 || states[slurm.StatePending] == 0 || states[slurm.StateRunning] == 0 ||
		states[slurm.StateSuspended] == 0 || states[slurm.StateCompleted] == 0 || states[slurm.StateCancelled] == 0 {
		t.Fatalf("fixture: %s's live jobs by state = %v, want more than 8 with PD, R, S, CD and CA", busy, states)
	}
}

// recentJobsBody renders a direct squeue the way the Recent Jobs route
// renders its view.
func recentJobsBody(t *testing.T, rows []slurmcli.QueueEntry) []byte {
	t.Helper()
	resp := core.RecentJobsResponse{Jobs: make([]core.RecentJob, 0, len(rows))}
	for i := range rows {
		resp.Jobs = append(resp.Jobs, core.RecentJobFromEntry(&rows[i]))
	}
	return marshalBody(t, resp)
}

// nodeJobsBody renders squeue -t R, filtered to node, the way the node
// running-jobs tab does.
func nodeJobsBody(t *testing.T, node string, running []slurmcli.QueueEntry) []byte {
	t.Helper()
	resp := core.NodeJobsResponse{Node: node}
	for _, e := range running {
		nodes, err := slurm.ExpandNodeRange(e.NodeList)
		if err != nil || !slices.Contains(nodes, node) {
			continue
		}
		resp.Jobs = append(resp.Jobs, core.NodeJobRow{
			JobID: e.JobID, Name: e.Name, User: e.User, Partition: e.Partition,
			State: string(e.State), CPUs: e.CPUs, MemMB: e.MemMB,
			ElapsedSecs: int64(e.Elapsed / time.Second), OverviewURL: "/job/" + e.JobID,
		})
	}
	return marshalBody(t, resp)
}

// accountUser is one user's line of an account's usage breakdown.
type accountUser struct {
	user                     string
	inUse, queued, run, pend int
	gpuHours, cpuHours       float64
}

// accountView is one account's usage, built from its own assoc and squeue
// queries: the reference for the Accounts row and both exports.
type accountView struct {
	account                   string
	grpCPU                    int
	grpGPUHours, gpuHoursUsed float64
	inUse, queued             int
	users                     []accountUser
}

// perAccountView aggregates scontrol show assoc account=<a> and squeue -A
// <a> (squeue's default states) into the account's usage.
func perAccountView(account string, assocs []slurmcli.AssocDetail, queue []slurmcli.QueueEntry) accountView {
	v := accountView{account: account}
	byUser := map[string]*accountUser{}
	row := func(name string) *accountUser {
		if byUser[name] == nil {
			byUser[name] = &accountUser{user: name}
		}
		return byUser[name]
	}
	for _, a := range assocs {
		if a.User == "" {
			v.grpCPU, v.grpGPUHours, v.gpuHoursUsed = a.GrpCPULimit, a.GPUHourLimit, a.GPUHoursUsed
			continue
		}
		r := row(a.User)
		r.gpuHours, r.cpuHours = a.GPUHoursUsed, a.CPUHoursUsed
	}
	for _, e := range queue {
		r := row(e.User)
		switch e.State {
		case slurm.StateRunning, slurm.StateCompleting:
			v.inUse += e.CPUs
			r.inUse += e.CPUs
			r.run++
		case slurm.StatePending:
			v.queued += e.CPUs
			r.queued += e.CPUs
			r.pend++
		}
	}
	for _, r := range byUser {
		v.users = append(v.users, *r)
	}
	sort.Slice(v.users, func(i, j int) bool {
		if v.users[i].inUse != v.users[j].inUse {
			return v.users[i].inUse > v.users[j].inUse
		}
		return v.users[i].user < v.users[j].user
	})
	return v
}

func (v accountView) row() core.AccountRow {
	r := core.AccountRow{
		Account: v.account, CPUsInUse: v.inUse, CPUsQueued: v.queued,
		GrpCPULimit: v.grpCPU, GPUHoursUsed: v.gpuHoursUsed, GrpGPUHourLimit: v.grpGPUHours,
		ExportURL: "/api/accounts/" + v.account + "/export.csv",
	}
	if v.grpCPU > 0 {
		r.CPUPercent = 100 * float64(v.inUse) / float64(v.grpCPU)
	}
	return r
}

var exportHeader = []string{"user", "cpus_in_use", "cpus_queued", "running_jobs", "pending_jobs", "gpu_hours_used", "cpu_hours_used"}

func (v accountView) csv(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	_ = w.Write(exportHeader)
	for _, u := range v.users {
		_ = w.Write([]string{u.user, strconv.Itoa(u.inUse), strconv.Itoa(u.queued), strconv.Itoa(u.run),
			strconv.Itoa(u.pend), fmt.Sprintf("%.2f", u.gpuHours), fmt.Sprintf("%.2f", u.cpuHours)})
	}
	w.Flush()
	return buf.Bytes()
}

func (v accountView) xlsx(t *testing.T) []byte {
	t.Helper()
	rows := [][]any{make([]any, len(exportHeader))}
	for i, h := range exportHeader {
		rows[0][i] = h
	}
	for _, u := range v.users {
		rows = append(rows, []any{u.user, u.inUse, u.queued, u.run, u.pend, u.gpuHours, u.cpuHours})
	}
	var buf bytes.Buffer
	if err := core.WriteXLSX(&buf, v.account+" usage", rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func accountsBody(t *testing.T, views []accountView, guide string) []byte {
	t.Helper()
	resp := core.AccountsResponse{Accounts: make([]core.AccountRow, 0, len(views)), UserGuideURL: guide}
	for _, v := range views {
		resp.Accounts = append(resp.Accounts, v.row())
	}
	return marshalBody(t, resp)
}

func marshalBody(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestAccountUsageFiltersEveryState feeds the account view one synthetic
// row per job state for two accounts — the simulator never holds a job in
// COMPLETING — and checks it equals the reference built from what squeue
// -A returns: the account's rows in PD/R/S/CG only.
func TestAccountUsageFiltersEveryState(t *testing.T) {
	var queue []slurmcli.QueueEntry
	for i, st := range slurm.AllJobStates {
		for _, account := range []string{"lab-a", "lab-b"} {
			queue = append(queue, slurmcli.QueueEntry{
				JobID: strconv.Itoa(len(queue) + 1), User: fmt.Sprintf("u%d", i%3), Account: account,
				State: st, CPUs: 1 + i,
			})
		}
	}
	assocs := []slurmcli.AssocDetail{
		{Account: "lab-a", GrpCPULimit: 64, GPUHourLimit: 10, GPUHoursUsed: 2},
		{Account: "lab-a", User: "u0", GPUHoursUsed: 1, CPUHoursUsed: 5},
		{Account: "lab-b", User: "u1", CPUHoursUsed: 7},
	}
	for _, account := range []string{"lab-a", "lab-b"} {
		var own []slurmcli.AssocDetail
		for _, a := range assocs {
			if a.Account == account {
				own = append(own, a)
			}
		}
		var listed []slurmcli.QueueEntry
		for _, e := range queue {
			if e.Account == account && e.State.Active() {
				listed = append(listed, e)
			}
		}
		want := perAccountView(account, own, listed)
		got := core.AccountUsageFrom(account, assocs, queue)
		gotView := accountView{account: got.Account, grpCPU: got.GrpCPULimit, grpGPUHours: got.GrpGPUHourLimit,
			gpuHoursUsed: got.GPUHoursUsed, inUse: got.CPUsInUse, queued: got.CPUsQueued}
		for _, u := range got.PerUser {
			gotView.users = append(gotView.users, accountUser{user: u.User, inUse: u.CPUsInUse, queued: u.CPUsQueued,
				run: u.RunningJobs, pend: u.PendingJobs, gpuHours: u.GPUHoursUsed, cpuHours: u.CPUHoursUsed})
		}
		if !reflect.DeepEqual(gotView, want) {
			t.Fatalf("%s: derived usage %+v, want %+v", account, gotView, want)
		}
		if want.inUse == 0 || want.queued == 0 {
			t.Fatalf("%s: fixture lacks running or pending CPUs: %+v", account, want)
		}
	}
}
