package core

import (
	"bytes"
	"encoding/csv"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
)

// widgetSamples seeds e with one job of each kind a widget route needs —
// alice's history, a job with logs, a job array — and returns, for every
// widget in the table, a path that serves it: the route with its path
// values filled in and the query its page sends.
func widgetSamples(e *env) map[string]string {
	e.t.Helper()
	seedMixedHistory(e)
	loggy := e.submit(slurm.SubmitRequest{
		Name: "loggy", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, StdoutPath: "/home/alice/loggy.out",
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	e.logs.Write("/home/alice/loggy.out", "step 1\n")
	array := e.submit(slurm.SubmitRequest{
		Name: "sweep", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, ArraySize: 3,
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	e.advance(15 * time.Minute)
	samples := map[string]string{
		"announcements":        "/api/announcements",
		"recent_jobs":          "/api/recent_jobs",
		"system_status":        "/api/system_status",
		"accounts":             "/api/accounts",
		"accounts_export":      "/api/accounts/lab-a/export.csv",
		"accounts_export_xlsx": "/api/accounts/lab-a/export.xlsx",
		"storage":              "/api/storage",
		"my_jobs":              "/api/myjobs?range=24h",
		"my_jobs_export":       "/api/myjobs/export.csv?range=24h",
		"my_jobs_charts":       "/api/myjobs/charts?range=24h",
		"job_perf":             "/api/jobperf?range=24h",
		"cluster_status":       "/api/cluster_status",
		"node_overview":        "/api/node/c001",
		"node_jobs":            "/api/node/c001/jobs",
		"job_overview":         "/api/job/" + jobIDStr(loggy),
		"job_logs":             "/api/job/" + jobIDStr(loggy) + "/logs",
		"job_array":            "/api/job/" + jobIDStr(array) + "/array",
		"events":               "/api/events?since=0",
		"insights":             "/api/insights?range=30d",
		"admin_overview":       "/api/admin/overview?range=7d",
		"jobperf_timeseries":   "/api/jobperf/timeseries?range=24h",
		"usage_cluster":        "/api/usage/cluster",
		"usage_accounts":       "/api/usage/accounts",
		"usage_efficiency":     "/api/usage/efficiency",
		"admin_health":         "/api/admin/health",
		"metrics":              "/metrics",
		"admin_slo":            "/api/admin/slo",
		"admin_traces":         "/api/admin/traces",
	}
	// A retained trace for the single-trace route: with every trace kept
	// (tracedEnv), one request leaves one in the store.
	e.wantStatus("alice", "/api/system_status", http.StatusOK)
	var list TraceListResponse
	e.getJSON("staff", "/api/admin/traces", &list)
	if len(list.Traces) == 0 {
		e.t.Fatal("no retained trace to sample admin_trace with")
	}
	samples["admin_trace"] = "/api/admin/traces/" + list.Traces[0].ID
	for _, w := range e.server.widgets {
		if samples[w.Name] == "" {
			e.t.Fatalf("widget %s has no sample path", w.Name)
		}
	}
	return samples
}

// TestPerUserCacheScopingHeaders walks the widget table: every widget
// whose class is not public declares Vary: X-Remote-User and a
// Cache-Control holding private — on its miss, on its render hit and on a
// 4xx — so a shared cache in front of the dashboard can never mix callers;
// public widgets declare neither and stay shareable. The event stream and
// every HTML page (each prints its viewer's name) are private too.
func TestPerUserCacheScopingHeaders(t *testing.T) {
	e := tracedEnv(t) // retains a trace for admin_trace's sample
	defer e.server.Close()
	samples := widgetSamples(e)

	check := func(what string, private bool, h http.Header) {
		t.Helper()
		vary, cc := h.Get("Vary"), h.Get("Cache-Control")
		if private && (vary != auth.UserHeader || !strings.Contains(cc, "private")) {
			t.Errorf("%s: Vary %q, Cache-Control %q; want Vary %s and private", what, vary, cc, auth.UserHeader)
		}
		if !private && (strings.Contains(vary, auth.UserHeader) || cc != "") {
			t.Errorf("%s: a public response declares Vary %q, Cache-Control %q", what, vary, cc)
		}
	}
	for _, w := range e.server.widgets {
		path, viewer := samples[w.Name], "alice"
		if w.vis == visStaff {
			viewer = "staff"
		}
		private := w.vis != visPublic
		for _, pass := range []string{"miss", "hit"} {
			status, h, body := e.getFull(viewer, path)
			if status != http.StatusOK {
				t.Fatalf("%s %s as %s: status %d: %s", w.Name, pass, viewer, status, body)
			}
			check(w.Name+" "+pass, private, h)
		}
		status, h, _ := e.getFull("", path)
		if status != http.StatusUnauthorized {
			t.Fatalf("%s without identity: status %d, want 401", w.Name, status)
		}
		check(w.Name+" 401", private, h)
	}

	st := e.openSSE("alice", "widgets=system_status")
	check("event stream", true, st.resp.Header)

	for _, p := range pageRoutes {
		path := strings.NewReplacer("{$}", "", "{name}", "c001", "{id}", "1").Replace(strings.TrimPrefix(p.route, "GET "))
		viewer := "alice"
		if p.staff {
			viewer = "staff"
			status, h, _ := e.getFull("alice", path)
			if status != http.StatusForbidden {
				t.Fatalf("page %s as alice: status %d, want 403", path, status)
			}
			check("page "+path+" 403", true, h)
		}
		status, h, _ := e.getFull(viewer, path)
		if status != http.StatusOK {
			t.Fatalf("page %s as %s: status %d", path, viewer, status)
		}
		check("page "+path, true, h)
		status, h, _ = e.getFull("", path)
		if status != http.StatusUnauthorized {
			t.Fatalf("page %s without identity: status %d, want 401", path, status)
		}
		check("page "+path+" 401", true, h)
	}
}

// TestStaffGateFollowsClass: every staff widget answers 401 without an
// identity and 403 to a user who is not staff, with the error bodies the
// routes have always sent, before its handler runs.
func TestStaffGateFollowsClass(t *testing.T) {
	e := tracedEnv(t)
	defer e.server.Close()
	samples := widgetSamples(e)
	staff := 0
	for _, w := range e.server.widgets {
		if w.vis != visStaff {
			continue
		}
		staff++
		for _, c := range []struct {
			user   string
			status int
			body   string
		}{
			{"", http.StatusUnauthorized, `{"error":"auth: request is not authenticated"}` + "\n"},
			{"alice", http.StatusForbidden, `{"error":"forbidden: admin access required"}` + "\n"},
		} {
			status, body := e.get(c.user, samples[w.Name])
			if status != c.status || string(body) != c.body {
				t.Errorf("%s as %q: %d %q, want %d %q", w.Name, c.user, status, body, c.status, c.body)
			}
		}
		e.wantStatus("staff", samples[w.Name], http.StatusOK)
	}
	if staff != 6 {
		t.Fatalf("%d staff widgets, want 6", staff)
	}
}

// varyAwareCache is a minimal correct shared HTTP cache: it stores one
// response per (URL, values of the headers the response named in Vary) and
// only serves or revalidates within the same key. The test drives it with
// two identities to prove the dashboard's headers are sufficient for such
// a cache to never cross user boundaries — and that even a Vary-blind
// cache cannot get a cross-user 304 out of the origin.
type varyAwareCache struct {
	entries map[string]varyEntry
}

type varyEntry struct {
	etag string
	body string
}

func (c *varyAwareCache) key(path string, vary string, r http.Header) string {
	k := path
	for _, h := range strings.Split(vary, ",") {
		h = strings.TrimSpace(h)
		if h != "" {
			k += "\x00" + h + "=" + r.Get(h)
		}
	}
	return k
}

// TestUsersNeverShareCachedBodyOr304 is the regression test for the
// shared-cache privacy bug: with two different X-Remote-User values, no
// cached body is ever reused across users and no 304 validates one user's
// ETag for the other on a per-user route.
func TestUsersNeverShareCachedBodyOr304(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()
	seedMixedHistory(e) // alice and bob have different My Jobs tables

	const path = "/api/myjobs?range=24h"
	aStatus, aHdr, aBody := e.getFull("alice", path)
	bStatus, bHdr, bBody := e.getFull("bob", path)
	if aStatus != http.StatusOK || bStatus != http.StatusOK {
		t.Fatalf("status alice=%d bob=%d", aStatus, bStatus)
	}
	aTag, bTag := aHdr.Get("ETag"), bHdr.Get("ETag")
	if aTag == "" || bTag == "" {
		t.Fatal("missing ETags on per-user route")
	}
	if string(aBody) == string(bBody) || aTag == bTag {
		t.Fatal("test premise broken: alice and bob see identical payloads")
	}

	// A Vary-blind cache's worst move: revalidate alice's stored ETag on
	// behalf of bob. The origin must serve bob's own 200 body, never a 304
	// that would freshen alice's entry for bob.
	req, _ := http.NewRequest("GET", e.web.URL+path, nil)
	req.Header.Set(auth.UserHeader, "bob")
	req.Header.Set("If-None-Match", aTag)
	resp, err := e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		t.Fatal("origin validated alice's ETag for bob (cross-user 304)")
	}
	if got := resp.Header.Get("ETag"); got != bTag {
		t.Fatalf("bob's revalidation got ETag %q, want bob's own %q", got, bTag)
	}

	// A correct Vary-honoring shared cache stores the two identities under
	// different keys, so bob can never hit alice's entry at all.
	cache := &varyAwareCache{entries: make(map[string]varyEntry)}
	aReq := http.Header{}
	aReq.Set(auth.UserHeader, "alice")
	bReq := http.Header{}
	bReq.Set(auth.UserHeader, "bob")
	aKey := cache.key(path, aHdr.Get("Vary"), aReq)
	cache.entries[aKey] = varyEntry{etag: aTag, body: string(aBody)}
	bKey := cache.key(path, bHdr.Get("Vary"), bReq)
	if bKey == aKey {
		t.Fatalf("Vary headers insufficient: both users map to cache key %q", aKey)
	}
	if _, hit := cache.entries[bKey]; hit {
		t.Fatal("bob hit alice's cache entry")
	}
	// And Cache-Control: private forbids the shared cache from storing the
	// response in the first place.
	if cc := aHdr.Get("Cache-Control"); !strings.Contains(cc, "private") {
		t.Fatalf("Cache-Control = %q, want private", cc)
	}
}

// TestNoAccountUserSeesOnlyOwnHistory: a user in no account gets only their
// own jobs from My Jobs, its charts and its export — never the whole
// cluster's history that sacct -a lists without -A — and two such users
// never share a fill. eve has a Slurm association (so she has jobs) but no
// account in the dashboard's directory; frank has neither.
func TestNoAccountUserSeesOnlyOwnHistory(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()
	e.cluster.DBD.AddAssociation(slurm.Association{Account: "lab-b", User: "eve"})
	e.users.AddUser(auth.User{Name: "eve"})
	e.users.AddUser(auth.User{Name: "frank"})
	e.submit(slurm.SubmitRequest{
		Name: "eves-run", User: "eve", Account: "lab-b", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	seedMixedHistory(e) // alice's and bob's jobs, which eve must not see

	for _, c := range []struct {
		user  string
		names []string
	}{{"eve", []string{"eves-run"}}, {"frank", nil}, {"eve", []string{"eves-run"}}} {
		for _, rng := range []string{"24h", "7d", "30d"} {
			var mj MyJobsResponse
			e.getJSON(c.user, "/api/myjobs?range="+rng, &mj)
			var names []string
			for _, j := range mj.Jobs {
				if j.User != c.user {
					t.Fatalf("%s's My Jobs (%s) lists %s's job %s", c.user, rng, j.User, j.Name)
				}
				names = append(names, j.Name)
			}
			if !slices.Equal(names, c.names) || mj.Total != len(c.names) {
				t.Fatalf("%s's My Jobs (%s) = %v (total %d), want %v", c.user, rng, names, mj.Total, c.names)
			}
		}

		var charts ChartsResponse
		e.getJSON(c.user, "/api/myjobs/charts?range=24h", &charts)
		for _, bar := range charts.StateDistribution {
			if bar.User != c.user {
				t.Fatalf("%s's charts include %s", c.user, bar.User)
			}
		}
		for _, bar := range charts.GPUHours {
			if bar.User != c.user {
				t.Fatalf("%s's GPU-hour chart includes %s", c.user, bar.User)
			}
		}
		if len(charts.StateDistribution) != len(c.names) {
			t.Fatalf("%s's charts have %d users, want %d", c.user, len(charts.StateDistribution), len(c.names))
		}

		status, body := e.get(c.user, "/api/myjobs/export.csv?range=24h")
		if status != http.StatusOK {
			t.Fatalf("%s's export: status %d", c.user, status)
		}
		rows, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1+len(c.names) {
			t.Fatalf("%s's export has %d data rows, want %d:\n%s", c.user, len(rows)-1, len(c.names), body)
		}
		for _, row := range rows[1:] {
			if row[2] != c.user {
				t.Fatalf("%s's export lists %s's job", c.user, row[2])
			}
		}
	}
}
