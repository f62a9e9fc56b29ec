package core

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
)

// selfDescribing widgets serve the server's own counters, traces and SLO
// state, which no second server reproduces; every other widget's body is a
// function of the cluster, the caller and the instant.
var selfDescribing = map[string]bool{
	"admin_health": true, "metrics": true, "admin_slo": true,
	"admin_traces": true, "admin_trace": true,
}

// TestVisibilityOverGeneratedPrincipals is the visibility classes'
// property test. Over generated principals — identical, overlapping and
// disjoint account sets, users in no account and staff — at two instants,
// for every widget whose body is a function of the cluster, the caller and
// the instant (mine=1 included):
//
//   - each 200 body, and each body a 304 validates, equals what a fresh
//     server with empty caches serves that caller at the same instant;
//   - callers with equal share keys get equal bytes and ETag;
//   - a push source never publishes a body built for another key, also
//     after AddUser changes the account set of the subscriber that
//     registered it: the source refreshes as the set its key names, so it
//     keeps publishing that set's fresh body with no refresh error.
func TestVisibilityOverGeneratedPrincipals(t *testing.T) {
	for _, seed := range []int64{1, 2, 5} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkVisibility(t, seed) })
	}
}

func checkVisibility(t *testing.T, seed int64) {
	var cfg Config
	var deps Deps
	e := newEnvDeps(t, func(c *Config) {
		c.Trace = TraceConfig{Sample: 1}
		c.Push.Jitter = -1
		cfg = *c
	}, nil, func(d *Deps, _ *slurm.Cluster) { deps = *d })
	defer e.server.Close()
	ref, err := NewServer(cfg, deps)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	// widgetSamples needs a retained trace.
	setTraceBaseline(e.server, 1)
	setTraceBaseline(ref, 1)

	rng := rand.New(rand.NewSource(seed))
	names := generatePrincipals(t, e, rng)
	samples := widgetSamples(e)
	paths := []string{"/api/myjobs?range=7d&mine=1", "/api/accounts/lab-c/export.csv"}
	for _, w := range e.server.widgets {
		if !selfDescribing[w.Name] {
			paths = append(paths, samples[w.Name])
		}
	}
	var maxTTL time.Duration
	for _, w := range e.server.widgets {
		maxTTL = max(maxTTL, w.TTL)
	}

	serve := func(s *Server, user, path, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set(auth.UserHeader, user)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	fresh := func(user, path string) *httptest.ResponseRecorder {
		ref.Cache().Clear()
		ref.RenderedCache().Clear()
		return serve(ref, user, path, "")
	}
	lookup := func(name string) *auth.User {
		u, ok := e.users.Lookup(name)
		if !ok {
			t.Fatalf("no principal %s", name)
		}
		return u
	}

	type served struct {
		status    int
		tag, body string
	}
	for round := 0; round < 2; round++ {
		for _, path := range paths {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			_, pattern := e.server.mux.Handler(req)
			wd := e.server.widget(widgetByRoute(e.server, pattern))
			got := make(map[string]served, len(names))
			byKey := make(map[string]string)
			for _, i := range rng.Perm(len(names)) {
				name := names[i]
				rec, want := serve(e.server, name, path, ""), fresh(name, path)
				sv := served{rec.Code, rec.Header().Get("ETag"), rec.Body.String()}
				if sv.status != want.Code || sv.body != want.Body.String() || sv.tag != want.Header().Get("ETag") {
					t.Fatalf("round %d %s as %s: %d %s %q; a fresh server serves %d %s %q",
						round, path, name, sv.status, sv.tag, sv.body, want.Code, want.Header().Get("ETag"), want.Body.String())
				}
				got[name] = sv
				if sv.status != http.StatusOK {
					continue
				}
				k := wd.shareKey(lookup(name), namesViewer(req))
				if prev, ok := byKey[k]; ok && prev != sv.tag+sv.body {
					t.Fatalf("round %d %s: callers with share key %q got different bodies", round, path, k)
				}
				byKey[k] = sv.tag + sv.body
			}
			// Every caller revalidates every tag served at this instant: a
			// 304 must validate the caller's own body.
			for _, name := range names {
				for other, sv := range got {
					if sv.tag == "" {
						continue
					}
					rec := serve(e.server, name, path, sv.tag)
					if rec.Code == http.StatusNotModified && sv.body != got[name].body {
						t.Fatalf("round %d %s: %s's tag validated for %s, whose body differs", round, path, other, name)
					}
					if rec.Code != http.StatusNotModified && rec.Body.String() != got[name].body {
						t.Fatalf("round %d %s as %s: revalidation served another body", round, path, name)
					}
				}
			}
		}
		// The next instant: every widget's entry has expired, and the
		// queue and accounting moved.
		e.clock.Advance(maxTTL + time.Second)
		e.submit(slurm.SubmitRequest{User: "carol", Account: "lab-b", Partition: "cpu",
			ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, Profile: slurm.UsageProfile{ActualDuration: time.Minute}})
	}

	// Push: every principal streams the push widgets; the first stream's
	// caller has a twin sharing their account set, so it registers the
	// twins' accounts source.
	first, twin := "", ""
	for _, a := range names {
		for _, b := range names {
			ua, ub := lookup(a), lookup(b)
			if first == "" && a != b && len(ua.Accounts) > 0 && slices.Equal(ua.Accounts, ub.Accounts) {
				first, twin = a, b
			}
		}
	}
	const widgets = "widgets=accounts,announcements,recent_jobs,storage,system_status"
	e.openSSE(first, widgets)
	for _, name := range names {
		if name != first {
			e.openSSE(name, widgets)
		}
	}
	hub := e.server.PushHub()
	// checkSnapshots compares every snapshot confirmed at this instant with
	// what a fresh server serves each caller whose source key it carries.
	checkSnapshots := func(when string) {
		t.Helper()
		for _, snap := range hub.Snapshots() {
			if !snap.Timestamp.Equal(e.clock.Now()) {
				continue
			}
			wd := e.server.widget(snap.Widget)
			matched := 0
			for _, name := range names {
				if wd.sourceKey(wd.shareKey(lookup(name), false)) != snap.Key {
					continue
				}
				matched++
				if want := fresh(name, wd.path()); want.Code != http.StatusOK || want.Body.String() != string(snap.Body.Bytes) {
					t.Fatalf("%s: source %q published %q; %s is served %d %q",
						when, snap.Key, snap.Body.Bytes, name, want.Code, want.Body.String())
				}
			}
			if matched == 0 {
				t.Fatalf("%s: source %q serves no principal", when, snap.Key)
			}
		}
	}
	checkSnapshots("after subscribe")

	// first's account set changes under the source first registered: the
	// source refreshes as the set its key names, not as first, so twin
	// keeps receiving that set's fresh body and no refresh fails.
	accountsWd := e.server.widget("accounts")
	oldKey := accountsWd.sourceKey(accountsWd.shareKey(lookup(first), false))
	before, _ := hub.Latest(oldKey)
	u := lookup(first)
	moved := slices.DeleteFunc(slices.Clone(u.Accounts), func(a string) bool { return a == "lab-c" })
	if len(moved) == len(u.Accounts) {
		moved = append(moved, "lab-c")
	}
	e.users.AddUser(auth.User{Name: first, Accounts: moved, Admin: u.Admin})
	e.clock.Advance(maxTTL + time.Second)
	e.submit(slurm.SubmitRequest{User: twin, Account: lookup(twin).Accounts[0], Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, Profile: slurm.UsageProfile{ActualDuration: time.Hour}})
	if e.server.TickPush() == 0 {
		t.Fatal("TickPush refreshed nothing")
	}
	after, _ := hub.Latest(oldKey)
	if after.Version == before.Version || !after.Timestamp.Equal(e.clock.Now()) {
		t.Fatalf("source %q stopped publishing after %s's account set changed (version %d -> %d)",
			oldKey, first, before.Version, after.Version)
	}
	if want := fresh(twin, accountsWd.path()); want.Code != http.StatusOK || want.Body.String() != string(after.Body.Bytes) {
		t.Fatalf("source %q published %q; twin %s is served %d %q", oldKey, after.Body.Bytes, twin, want.Code, want.Body.String())
	}
	if got := e.server.PushScheduler().Stats().Errors; got != 0 {
		t.Fatalf("%d refresh errors across the account change, want 0", got)
	}
	checkSnapshots("after AddUser")
}

// generatePrincipals adds eight generated users to e beside alice, bob,
// carol and staff: each takes a random subset of three accounts, or a twin
// of an earlier principal's set, and is staff one time in eight. Each runs
// jobs in their accounts (a user in no account, in lab-c, which the
// directory does not give them). It checks the principals cover identical,
// overlapping and disjoint account sets, users in no account and staff.
func generatePrincipals(t *testing.T, e *env, rng *rand.Rand) []string {
	t.Helper()
	e.cluster.DBD.AddAssociation(slurm.Association{Account: "lab-c", GrpCPULimit: 16})
	names := []string{"alice", "bob", "carol", "staff"}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("p%d", i)
		var accounts []string
		if rng.Intn(3) == 0 {
			twin, _ := e.users.Lookup(names[rng.Intn(len(names))])
			accounts = twin.Accounts
		} else {
			for _, a := range []string{"lab-c", "lab-b", "lab-a"} {
				if rng.Intn(2) == 0 {
					accounts = append(accounts, a)
				}
			}
		}
		e.users.AddUser(auth.User{Name: name, Accounts: accounts, Admin: rng.Intn(8) == 0})
		names = append(names, name)
		e.storage.ProvisionUser(name)
		runs := accounts
		if len(runs) == 0 {
			runs = []string{"lab-c"}
		}
		for _, a := range runs {
			e.cluster.DBD.AddAssociation(slurm.Association{Account: a, User: name})
		}
		for j := 0; j < 1+rng.Intn(3); j++ {
			req := slurm.SubmitRequest{
				Name: fmt.Sprintf("%s-%d", name, j), User: name, Account: runs[rng.Intn(len(runs))],
				Partition: "cpu", ReqTRES: slurm.TRES{CPUs: 1 + rng.Intn(2), MemMB: 512},
				Profile: slurm.UsageProfile{ActualDuration: time.Duration(5+rng.Intn(300)) * time.Minute},
			}
			if rng.Intn(4) == 0 {
				req.Profile.FailureState, req.Profile.ExitCode = slurm.StateFailed, 1
			}
			e.submit(req)
		}
	}
	e.advance(2 * time.Hour)

	var identical, overlapping, disjoint, noAccount, staff bool
	for i, a := range names {
		ua, _ := e.users.Lookup(a)
		staff = staff || ua.Admin
		noAccount = noAccount || len(ua.Accounts) == 0 && !ua.Admin
		for _, b := range names[i+1:] {
			ub, _ := e.users.Lookup(b)
			if len(ua.Accounts) == 0 || len(ub.Accounts) == 0 {
				continue
			}
			switch {
			case slices.Equal(ua.Accounts, ub.Accounts):
				identical = true
			case slices.ContainsFunc(ua.Accounts, ub.MemberOf):
				overlapping = true
			default:
				disjoint = true
			}
		}
	}
	if !identical || !overlapping || !disjoint || !noAccount || !staff {
		t.Fatalf("principals %v miss a kind: identical %t overlapping %t disjoint %t no-account %t staff %t",
			names, identical, overlapping, disjoint, noAccount, staff)
	}
	return names
}

// widgetByRoute returns the name of the widget mounted at pattern.
func widgetByRoute(s *Server, pattern string) string {
	for _, w := range s.widgets {
		if w.Route == pattern {
			return w.Name
		}
	}
	return ""
}

// TestIdlePushSourcesReleased: three users open and close Recent Jobs and
// Storage streams; once the sources come due with no subscriber the
// scheduler releases them, so after three simulated hours of ticks no
// source, no snapshot and no version series remain. A later stream
// registers and refreshes afresh.
func TestIdlePushSourcesReleased(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()
	hub, sched := e.server.PushHub(), e.server.PushScheduler()
	for _, user := range []string{"alice", "bob", "carol"} {
		st := e.openSSE(user, "widgets=recent_jobs,storage")
		st.next(t)
		st.next(t)
		st.resp.Body.Close()
		<-st.done
	}
	if n := sched.Stats().Sources; n != 6 {
		t.Fatalf("%d sources after three streams, want 6", n)
	}
	for deadline := time.Now().Add(5 * time.Second); hub.SubscriberCount() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("closed streams still subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	for m := 0; m < 180; m++ {
		e.clock.Advance(time.Minute)
		e.server.TickPush()
	}
	if st := sched.Stats(); st.Sources != 0 || st.Released != 6 || len(hub.Snapshots()) != 0 {
		t.Fatalf("after 3 h: %d sources (%d released), %d snapshots; want 0 (6), 0",
			st.Sources, st.Released, len(hub.Snapshots()))
	}
	_, metrics := e.get("staff", "/metrics")
	if strings.Contains(string(metrics), "ooddash_push_widget_version{") {
		t.Fatal("/metrics still exports a version series for a released source")
	}

	st := e.openSSE("alice", "widgets=recent_jobs")
	if ev := st.next(t); ev.Name != "recent_jobs" {
		t.Fatalf("first event after re-subscribing = %q, want recent_jobs", ev.Name)
	}
	if _, held := hub.Latest("recent_jobs:alice"); !held {
		t.Fatal("re-subscribed source holds no snapshot")
	}
}
