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

// TestPerUserCacheScopingHeaders asserts that identity-variant responses
// declare Vary: X-Remote-User + Cache-Control: private so a shared cache
// in front of the dashboard can never mix users — and that global widgets
// stay cacheable (no such headers), on both the first build and the
// materialized hit path.
func TestPerUserCacheScopingHeaders(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()
	seedMixedHistory(e)

	assertPrivate := func(path string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // miss then rendered hit
			status, h, _ := e.getFull("alice", path)
			if status != http.StatusOK {
				t.Fatalf("%s pass %d: status %d", path, pass, status)
			}
			if got := h.Get("Vary"); got != auth.UserHeader {
				t.Errorf("%s pass %d: Vary = %q, want %q", path, pass, got, auth.UserHeader)
			}
			if got := h.Get("Cache-Control"); got != "private" {
				t.Errorf("%s pass %d: Cache-Control = %q, want private", path, pass, got)
			}
		}
	}
	assertShared := func(path string) {
		t.Helper()
		status, h, _ := e.getFull("alice", path)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", path, status)
		}
		if got := h.Get("Vary"); strings.Contains(got, auth.UserHeader) {
			t.Errorf("%s: global widget declares Vary = %q", path, got)
		}
		if got := h.Get("Cache-Control"); got != "" {
			t.Errorf("%s: global widget declares Cache-Control = %q", path, got)
		}
	}

	// Per-user JSON variants (rendered-cache routes).
	assertPrivate("/api/myjobs?range=24h")
	assertPrivate("/api/myjobs/charts?range=24h")
	assertPrivate("/api/jobperf?range=24h")
	assertPrivate("/api/recent_jobs")
	// Per-user non-JSON exports.
	assertPrivate("/api/myjobs/export.csv?range=24h")
	// Global, identity-independent widgets must stay shared-cacheable.
	assertShared("/api/system_status")
	assertShared("/api/cluster_status")
	assertShared("/api/announcements")
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
