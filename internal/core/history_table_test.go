package core_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"
	"time"

	"ooddash/internal/core"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/workload"
)

// tableBackend is one backend of the table fixtures: a dashboard over it
// and a direct sacct through the same backend.
type tableBackend struct {
	name   string
	server *core.Server
	sacct  func(slurmcli.SacctOptions) ([]slurmcli.SacctRow, error)
}

// tableFixture is a generated history served by a CLI and a REST
// dashboard, with one viewer per account set.
type tableFixture struct {
	env      *workload.Env
	backends []tableBackend
	viewers  []string
}

// newTableFixture builds the fixture for seed. A long stale grace keeps
// each fill retained across the day-long gap run puts between two checks,
// so the second check's fills carry closed days over.
func newTableFixture(t *testing.T, seed int64) *tableFixture {
	t.Helper()
	spec := workload.SmallSpec()
	spec.Seed = seed
	env, err := workload.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	env.SynthesizeHistory(0, 600)
	news := httptest.NewServer(env.Feed)
	t.Cleanup(news.Close)
	newServer := func(mode string) *core.Server {
		cfg := core.Config{Backend: core.BackendConfig{Slurmctld: mode, Slurmdbd: mode}}
		cfg.Resilience.StaleFor = 72 * time.Hour
		s, err := env.NewServerRunner(news.URL, cfg, env.Runner)
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
	fx := &tableFixture{env: env, backends: []tableBackend{
		{core.BackendCLI, newServer(core.BackendCLI), func(o slurmcli.SacctOptions) ([]slurmcli.SacctRow, error) {
			return slurmcli.Sacct(env.Runner, o)
		}},
		{core.BackendREST, newServer(core.BackendREST), func(o slurmcli.SacctOptions) ([]slurmcli.SacctRow, error) {
			return restClient.Sacct(context.Background(), o)
		}},
	}}
	seen := make(map[string]bool)
	for _, user := range env.UserNames {
		u, _ := env.Users.Lookup(user)
		if set := fmt.Sprint(u.Accounts); !seen[set] {
			seen[set] = true
			fx.viewers = append(fx.viewers, user)
		}
	}
	return fx
}

// direct runs b's direct sacct of viewer's account set over [asOf − span,
// asOf].
func (fx *tableFixture) direct(t *testing.T, b tableBackend, viewer string, asOf time.Time, span time.Duration) []slurmcli.SacctRow {
	t.Helper()
	u, _ := fx.env.Users.Lookup(viewer)
	rows, err := b.sacct(slurmcli.SacctOptions{
		Accounts: u.Accounts, AllUsers: true, Start: asOf.Add(-span), End: asOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// run advances the cluster by d, ticking every ten minutes.
func (fx *tableFixture) run(d time.Duration) {
	for d > 0 {
		step := min(d, 10*time.Minute)
		fx.env.Clock.Advance(step)
		fx.env.Cluster.Ctl.Tick()
		d -= step
	}
}

// tableFilters are the filter shapes of the export filter test over
// viewer's rows: none, a state in upper and lower case, the viewer and
// another user of the rows, the viewer's first account and another
// account of the rows, mine=1, the viewer in a state, and a user nobody
// is, which matches nothing.
func tableFilters(viewer string, accounts []string, rows []core.JobRow) []string {
	other, account, state := viewer, accounts[0], "FAILED"
	for _, jr := range rows {
		if jr.User != viewer {
			other = jr.User
		}
		if jr.Account != accounts[0] {
			account = jr.Account
		}
		if jr.State != "FAILED" {
			state = jr.State
		}
	}
	return []string{
		"", "&state=FAILED", "&state=completed", "&state=" + state,
		"&user=" + viewer, "&user=" + other,
		"&account=" + accounts[0], "&account=" + account, "&mine=1",
		"&user=" + viewer + "&state=RUNNING", "&user=nobody",
	}
}

// TestMyJobsSplicedTableMatchesReflected is the splice's property test.
// Over generated histories on the CLI and the REST backend, for one viewer
// per account set, every range from 24h to 1y, every filter shape and
// generated pages (offset at 0, mid-list, exactly the end and past it,
// with and without a limit), the table body equals json.Marshal of the
// MyJobsResponse built from a direct sacct through JobRowFromSacct, plus
// the newline: with the rendered layer on and with it off, on cold fills
// and again a day later, when the refills carry closed days over from the
// retained fills.
func TestMyJobsSplicedTableMatchesReflected(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			fx := newTableFixture(t, seed)
			rng := rand.New(rand.NewSource(seed))
			shapes := make(map[string]bool)
			check := func(step string) {
				t.Helper()
				asOf := fx.env.Clock.Now().Truncate(time.Second)
				for _, b := range fx.backends {
					for _, viewer := range fx.viewers {
						u, _ := fx.env.Users.Lookup(viewer)
						for _, r := range historySpans {
							rows := directJobRows(fx.direct(t, b, viewer, asOf, r.span), asOf)
							for _, filter := range tableFilters(viewer, u.Accounts, rows) {
								base := "range=" + r.name + filter
								q, _ := url.ParseQuery(base)
								var matched int
								for _, jr := range rows {
									if keepJobRow(jr, viewer, q) {
										matched++
									}
								}
								pages := []string{"", "&offset=0", "&offset=" + strconv.Itoa(matched/2),
									"&offset=" + strconv.Itoa(matched), "&offset=" + strconv.Itoa(matched+1+rng.Intn(5))}
								for _, page := range slices.Clone(pages) {
									pages = append(pages, page+"&limit="+strconv.Itoa(1+rng.Intn(max(matched, 1))))
								}
								for _, page := range pages {
									path := "/api/myjobs?" + base + page
									q, _ := url.ParseQuery(base + page)
									want := myJobsPage(t, rows, viewer, q)
									shapes[shapeOf(matched, q)] = true
									for _, off := range []bool{false, true} {
										b.server.SetRenderCacheDisabled(off)
										if got := serveBody(t, b.server, viewer, path); !bytes.Equal(got, want) {
											t.Fatalf("%s: %s %s as %s (rendered layer off: %v):\n got %s\nwant %s",
												step, b.name, path, viewer, off, got, want)
										}
									}
									b.server.SetRenderCacheDisabled(false)
								}
							}
						}
					}
				}
			}
			check("cold")
			fx.run(26 * time.Hour)
			check("carried over")
			for _, shape := range []string{"no match", "page", "page past the end", "page at the end", "limited page"} {
				if !shapes[shape] {
					t.Fatalf("fixture: no query of shape %q", shape)
				}
			}
		})
	}
}

// shapeOf names the body shape a query asks for: no match (jobs null), a
// page at or past the end (jobs []), a limited page or a page.
func shapeOf(matched int, q url.Values) string {
	offset, _ := strconv.Atoi(q.Get("offset"))
	switch {
	case matched == 0:
		return "no match"
	case offset == matched:
		return "page at the end"
	case offset > matched:
		return "page past the end"
	case q.Get("limit") != "":
		return "limited page"
	}
	return "page"
}

// TestMyJobsExportMatchesDirectSacct: on the CLI and the REST backend, for
// one viewer per account set, every range from 24h to 1y and every filter
// shape of the export filter test, the CSV export equals, byte for byte,
// the CSV written from a direct sacct's JobRows with the export's columns,
// on cold fills and again a day later, when the refills carry closed days
// over from the retained fills.
func TestMyJobsExportMatchesDirectSacct(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			fx := newTableFixture(t, seed)
			check := func(step string) {
				t.Helper()
				asOf := fx.env.Clock.Now().Truncate(time.Second)
				for _, b := range fx.backends {
					for _, viewer := range fx.viewers {
						u, _ := fx.env.Users.Lookup(viewer)
						for _, r := range historySpans {
							all := directJobRows(fx.direct(t, b, viewer, asOf, r.span), asOf)
							for _, filter := range tableFilters(viewer, u.Accounts, all) {
								q, _ := url.ParseQuery("range=" + r.name + filter)
								var rows []core.JobRow
								for _, jr := range all {
									if keepJobRow(jr, viewer, q) {
										rows = append(rows, jr)
									}
								}
								path := "/api/myjobs/export.csv?range=" + r.name + filter
								if got, want := serveBody(t, b.server, viewer, path), exportCSV(t, rows); !bytes.Equal(got, want) {
									t.Fatalf("%s: %s %s as %s:\n got %s\nwant %s", step, b.name, path, viewer, got, want)
								}
							}
						}
					}
				}
			}
			check("cold")
			fx.run(26 * time.Hour)
			check("carried over")
		})
	}
}

// exportCSV writes rows as the My Jobs export does: its header, then one
// line per row in the export's columns.
func exportCSV(t *testing.T, rows []core.JobRow) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	_ = cw.Write([]string{"job_id", "name", "user", "account", "partition", "qos",
		"state", "submit", "start", "end", "wait_seconds", "elapsed_seconds",
		"req_cpus", "req_mem_mb", "gpus", "gpu_hours",
		"time_eff_pct", "cpu_eff_pct", "mem_eff_pct", "exit_code"})
	fmtTime := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339)
	}
	fmtEff := func(v *float64) string {
		if v == nil {
			return ""
		}
		return strconv.FormatFloat(*v, 'f', 1, 64)
	}
	for _, row := range rows {
		_ = cw.Write([]string{
			row.JobID, row.Name, row.User, row.Account, row.Partition, row.QOS,
			row.State, fmtTime(row.SubmitTime), fmtTime(row.StartTime), fmtTime(row.EndTime),
			strconv.FormatInt(row.WaitSeconds, 10),
			strconv.FormatInt(row.ElapsedSeconds, 10),
			strconv.Itoa(row.ReqCPUs),
			strconv.FormatInt(row.ReqMemMB, 10),
			strconv.Itoa(row.GPUs),
			strconv.FormatFloat(row.GPUHours, 'f', 2, 64),
			fmtEff(row.Efficiency.TimePercent),
			fmtEff(row.Efficiency.CPUPercent),
			fmtEff(row.Efficiency.MemoryPercent),
			strconv.Itoa(row.ExitCode),
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
