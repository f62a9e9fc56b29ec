package fleet

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/browser"
	"ooddash/internal/core"
	"ooddash/internal/etag"
	"ooddash/internal/obs"
	"ooddash/internal/obs/obstest"
	"ooddash/internal/push"
	"ooddash/internal/slo"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/workload"
)

// newTestFleet builds a fleet of n replicas over one shared simulated
// environment — N dashboard processes in front of one Slurm.
func newTestFleet(t *testing.T, n int, mutate func(*Options)) (*workload.Env, *Fleet) {
	t.Helper()
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	newsSrv := httptest.NewServer(env.Feed)
	t.Cleanup(newsSrv.Close)
	opts := Options{
		Replicas: n,
		Clock:    env.Clock,
		Runner:   env.Runner,
		Build: func(id string, r slurmcli.Runner) (*core.Server, error) {
			return env.NewServerRunner(newsSrv.URL, core.Config{
				Push: core.PushConfig{Jitter: -1},
			}, r)
		},
	}
	if mutate != nil {
		mutate(&opts)
	}
	fl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return env, fl
}

// newReference builds a fresh single server over env: what one dashboard
// with its own cache serves at this instant.
func newReference(t *testing.T, env *workload.Env) *core.Server {
	t.Helper()
	newsSrv := httptest.NewServer(env.Feed)
	t.Cleanup(newsSrv.Close)
	ref, err := env.NewServerRunner(newsSrv.URL, core.Config{}, env.Runner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	return ref
}

func fleetGet(t *testing.T, h http.Handler, user, path, etag string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if user != "" {
		req.Header.Set(auth.UserHeader, user)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestLBRoundRobinSpreads(t *testing.T) {
	env, fl := newTestFleet(t, 3, nil)
	user := env.UserNames[0]
	for i := 0; i < 9; i++ {
		rec := fleetGet(t, fl, user, "/api/system_status", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
		if rec.Header().Get(fleetReplicaHeaderKey) == "" {
			t.Fatalf("request %d: missing replica header", i)
		}
	}
	for _, id := range fl.Replicas() {
		if got := fl.met.lbRequests.Value(id); got != 3 {
			t.Fatalf("replica %s served %d of 9 requests, want 3", id, got)
		}
	}
}

// TestLBRoundRobinFailsOverPastKilledReplica: the load balancer skips a
// killed replica, counts each skip as a failover, and no request fails;
// the survivors share the traffic.
func TestLBRoundRobinFailsOverPastKilledReplica(t *testing.T) {
	env, fl := newTestFleet(t, 3, nil)
	user := env.UserNames[0]
	victim := fl.Replicas()[1]
	if err := fl.Kill(victim); err != nil {
		t.Fatal(err)
	}
	served := map[string]int{}
	for i := 0; i < 9; i++ {
		rec := fleetGet(t, fl, user, "/api/system_status", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d after the kill: status %d", i, rec.Code)
		}
		served[rec.Header().Get(fleetReplicaHeaderKey)]++
	}
	if served[victim] != 0 || len(served) != 2 {
		t.Fatalf("requests by replica after killing %s: %v, want both survivors and never the victim", victim, served)
	}
	if got := fl.met.lbFailovers.Value(); got != 3 {
		t.Fatalf("failovers = %d, want 3 (every third request starts at the victim)", got)
	}
}

// pushWidgets are the widget table's push widgets, plus cluster_status and
// my_jobs, the two widgets that had push sources only so fleet peers could
// serve them.
var pushWidgets = []struct {
	name, path string
	perUser    bool
}{
	{"announcements", "/api/announcements", false},
	{"system_status", "/api/system_status", false},
	{"cluster_status", "/api/cluster_status", false},
	{"recent_jobs", "/api/recent_jobs", true},
	{"accounts", "/api/accounts", true},
	{"storage", "/api/storage", true},
	{"my_jobs", "/api/myjobs", true},
}

// otherGroupUser returns a user sharing no account with user.
func otherGroupUser(t *testing.T, env *workload.Env, user string) string {
	t.Helper()
	u, _ := env.Users.Lookup(user)
	for _, name := range env.UserNames {
		v, _ := env.Users.Lookup(name)
		if !slices.ContainsFunc(v.Accounts, u.MemberOf) {
			return name
		}
	}
	t.Fatalf("every user shares an account with %s", user)
	return ""
}

// TestPeerServesOwnerBytesWithMatchingETag: replicas share one cache tier,
// so for every push widget the replica that filled it and every peer serve
// one body — identical bytes and ETag, the tag being the hash of those
// bytes — and a client that validated against one replica gets a 304 from
// another. Per-user widgets stay private: they carry the private cache
// class everywhere, and a second user in other groups, served by a peer
// right after the first user's fill, gets exactly what a fresh single
// server serves them.
func TestPeerServesOwnerBytesWithMatchingETag(t *testing.T) {
	env, fl := newTestFleet(t, 3, nil)
	user := env.UserNames[0]
	other := otherGroupUser(t, env, user)
	ref := newReference(t, env)
	ids := fl.Replicas()
	for _, w := range pushWidgets {
		t.Run(w.name, func(t *testing.T) {
			first := fleetGet(t, fl.Server(ids[0]), user, w.path, "")
			tag := first.Header().Get("Etag")
			if first.Code != http.StatusOK || tag == "" || tag != etag.For(first.Body.Bytes()) {
				t.Fatalf("first serve: status %d, ETag %q is not the hash of its bytes", first.Code, tag)
			}
			for _, id := range ids[1:] {
				peer := fl.Server(id)
				rec := fleetGet(t, peer, user, w.path, "")
				if rec.Code != http.StatusOK || rec.Body.String() != first.Body.String() || rec.Header().Get("Etag") != tag {
					t.Fatalf("replica %s: status %d, ETag %q, bytes\n%q\nvs %s's %q\n%q",
						id, rec.Code, rec.Header().Get("Etag"), rec.Body.String(), ids[0], tag, first.Body.String())
				}
				if cc, vary := rec.Header().Get("Cache-Control"), rec.Header().Get("Vary"); w.perUser &&
					(cc != "private" || vary != auth.UserHeader) || !w.perUser && (cc != "" || vary != "") {
					t.Fatalf("replica %s cache class: Cache-Control %q, Vary %q (per-user %v)", id, cc, vary, w.perUser)
				}
				// A client that validated against the first replica
				// revalidates against this one — cross-replica 304.
				if rec := fleetGet(t, peer, user, w.path, tag); rec.Code != http.StatusNotModified {
					t.Fatalf("replica %s revalidation status %d, want 304", id, rec.Code)
				}
			}
			if !w.perUser {
				return
			}
			for _, name := range []string{user, other} {
				got := fleetGet(t, fl.Server(ids[1]), name, w.path, "")
				want := fleetGet(t, ref, name, w.path, "")
				if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
					t.Fatalf("%s's %s from a peer differs from a fresh server's:\n%q\nvs\n%q",
						name, w.name, got.Body.String(), want.Body.String())
				}
			}
		})
	}
}

// TestSSEStreamsOnTwoReplicasShareOneFill: streams held on two replicas
// each register the source on their own replica's scheduler and both see
// every change, while the shared cache keeps upstream cost at one fill per
// TTL. Closing one stream releases that replica's source (each replica
// sees its own subscribers) while the other keeps refreshing.
func TestSSEStreamsOnTwoReplicasShareOneFill(t *testing.T) {
	env, fl := newTestFleet(t, 2, nil)
	user := env.UserNames[0]
	u, _ := env.Users.Lookup(user)
	widgets := []browser.WidgetRequest{{Name: "recent_jobs", Path: "/api/recent_jobs", TTL: 30 * time.Second}}
	var streams []*browser.EventStream
	var events []chan push.Event
	for _, id := range fl.Replicas() {
		srv := httptest.NewServer(fl.Server(id))
		t.Cleanup(srv.Close)
		ch := make(chan push.Event, 64)
		st, err := browser.New(user, srv.URL, nil, env.Clock).OpenEventStream(widgets, func(ev push.Event) { ch <- ev })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		streams, events = append(streams, st), append(events, ch)
		drainUntil(t, ch, "recent_jobs", 5*time.Second) // subscribe-time replay
	}

	for round := 0; round < 3; round++ {
		before := fl.UpstreamCalls()["slurmctld"]
		if _, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
			User: user, Account: u.Accounts[0], Partition: "cpu", QOS: "normal",
			TimeLimit: time.Hour, ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024},
		}); err != nil {
			t.Fatal(err)
		}
		env.Clock.Advance(40 * time.Second)
		env.Cluster.Ctl.Tick()
		fl.Tick()
		for _, ch := range events {
			drainUntil(t, ch, "recent_jobs", 5*time.Second)
		}
		if got := fl.UpstreamCalls()["slurmctld"] - before; got != 1 {
			t.Fatalf("round %d: two replicas' refreshes cost %d slurmctld calls, want 1", round, got)
		}
	}

	// The second replica's stream goes away: at its next due tick that
	// replica's scheduler releases the source and its snapshot; the first
	// replica's keeps refreshing.
	streams[1].Close()
	key := "recent_jobs:" + user
	hub1 := fl.Server(fl.Replicas()[1]).PushHub()
	for deadline := time.Now().Add(5 * time.Second); hub1.SubscribersFor(key) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("closed stream still subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	refreshes := func(i int) map[string]int64 {
		return fl.Server(fl.Replicas()[i]).PushScheduler().SourceRefreshes()
	}
	r0 := refreshes(0)[key]
	env.Clock.Advance(40 * time.Second)
	fl.Tick()
	if got := refreshes(0)[key]; got != r0+1 {
		t.Fatalf("after the second stream closed: first replica refreshes %d -> %d, want one more", r0, got)
	}
	if _, held := refreshes(1)[key]; held {
		t.Fatal("second replica still holds the source no stream subscribes")
	}
	if _, held := hub1.Latest(key); held {
		t.Fatal("second replica still holds the released source's snapshot")
	}
}

func drainUntil(t *testing.T, events <-chan push.Event, name string, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev := <-events:
			if ev.Name == name {
				return
			}
		case <-deadline:
			t.Fatalf("no %q event within %v", name, timeout)
		}
	}
}

// TestHistoryFillSharedAcrossReplicas: My Jobs at 7d and 30d, viewed by
// two members of one account set through every replica inside one TTL,
// costs two slurmdbd calls fleet-wide — one sacct and the day-count rollup
// query the fill checks its closed days against — and every replica serves
// each view the same bytes.
func TestHistoryFillSharedAcrossReplicas(t *testing.T) {
	env, fl := newTestFleet(t, 3, nil)
	a, _ := env.Users.Lookup(env.UserNames[0])
	var viewers []string
	for _, name := range env.UserNames {
		if u, _ := env.Users.Lookup(name); slices.Equal(u.Accounts, a.Accounts) {
			viewers = append(viewers, name)
		}
	}
	if len(viewers) < 2 {
		t.Fatalf("no second member of %v", a.Accounts)
	}
	viewers = viewers[:2]
	before := fl.UpstreamCalls()["slurmdbd"]
	dbd := env.Cluster.DBD.Stats()
	sacct, rollup := dbd.Count(slurm.RPCSacct), dbd.Count(slurm.RPCRollup)
	for _, path := range []string{"/api/myjobs?range=7d", "/api/myjobs?range=30d"} {
		for _, user := range viewers {
			var first string
			for i, id := range fl.Replicas() {
				rec := fleetGet(t, fl.Server(id), user, path, "")
				if rec.Code != http.StatusOK {
					t.Fatalf("%s as %s on %s: status %d", path, user, id, rec.Code)
				}
				if i == 0 {
					first = rec.Body.String()
				} else if rec.Body.String() != first {
					t.Fatalf("%s as %s: replica %s serves different bytes", path, user, id)
				}
			}
		}
	}
	if got := fl.UpstreamCalls()["slurmdbd"] - before; got != 2 {
		t.Fatalf("two users x two ranges x 3 replicas cost %d slurmdbd calls, want 2", got)
	}
	if s, r := dbd.Count(slurm.RPCSacct)-sacct, dbd.Count(slurm.RPCRollup)-rollup; s != 1 || r != 1 {
		t.Fatalf("slurmdbd served %d sacct and %d rollup calls, want 1 and 1", s, r)
	}
}

// TestJoinServesSharedCacheAtOnce: a replica that joins a warm fleet
// serves every push widget the same bytes and ETag as the rest from its
// first request, at no upstream cost.
func TestJoinServesSharedCacheAtOnce(t *testing.T) {
	env, fl := newTestFleet(t, 1, nil)
	user := env.UserNames[0]
	only := fl.Server(fl.Replicas()[0])
	warm := map[string]*httptest.ResponseRecorder{}
	for _, w := range pushWidgets {
		if warm[w.path] = fleetGet(t, only, user, w.path, ""); warm[w.path].Code != http.StatusOK {
			t.Fatalf("%s: status %d", w.path, warm[w.path].Code)
		}
	}
	before := fl.UpstreamCalls()

	id, err := fl.Join()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fl.Live(), []string{"r0", id}) {
		t.Fatalf("live replicas after Join = %v", fl.Live())
	}
	for _, w := range pushWidgets {
		rec := fleetGet(t, fl.Server(id), user, w.path, "")
		if rec.Code != http.StatusOK || rec.Body.String() != warm[w.path].Body.String() ||
			rec.Header().Get("Etag") != warm[w.path].Header().Get("Etag") {
			t.Fatalf("%s on the newcomer: status %d, bytes or ETag differ from the warm replica's", w.path, rec.Code)
		}
	}
	if after := fl.UpstreamCalls(); !maps.Equal(after, before) {
		t.Fatalf("the newcomer's first requests cost upstream calls: %v -> %v", before, after)
	}
}

func TestNoLiveReplicas(t *testing.T) {
	env, fl := newTestFleet(t, 2, nil)
	for _, id := range fl.Replicas() {
		if err := fl.Kill(id); err != nil {
			t.Fatal(err)
		}
	}
	rec := fleetGet(t, fl, env.UserNames[0], "/api/system_status", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when the whole fleet is dead", rec.Code)
	}
}

// TestFleetMetricsExposition: the fleet registry carries the LB and
// upstream families and, under ooddash_fleet_slo_, every SLO family a
// replica derives from its Status, with the same type; the fleet's and a
// replica's documents are both valid expositions.
func TestFleetMetricsExposition(t *testing.T) {
	env, fl := newTestFleet(t, 2, nil)
	fleetGet(t, fl, env.UserNames[0], "/api/system_status", "")
	expose := func(reg *obs.Registry) string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	fleetDoc, replicaDoc := expose(fl.Metrics()), expose(fl.Server("r0").Metrics())
	for _, want := range []string{
		"ooddash_fleet_replicas_live 2",
		"ooddash_fleet_lb_requests_total",
		`ooddash_fleet_upstream_rpcs_total{replica="r0",daemon="slurmctld"}`,
	} {
		if !strings.Contains(fleetDoc, want) {
			t.Fatalf("exposition missing %q:\n%s", want, fleetDoc)
		}
	}
	families := regexp.MustCompile(`(?m)^# TYPE ooddash_slo_(\w+) (\w+)$`).FindAllStringSubmatch(replicaDoc, -1)
	shared := 0
	for _, f := range families {
		if f[1] == "events_total" {
			continue // per-request event counts: an engine's own, not from Status
		}
		shared++
		if want := "# TYPE ooddash_fleet_slo_" + f[1] + " " + f[2] + "\n"; !strings.Contains(fleetDoc, want) {
			t.Errorf("a replica exports ooddash_slo_%s, the fleet lacks %q", f[1], want)
		}
	}
	if shared != 7 {
		t.Fatalf("a replica exports %d Status-derived SLO families, want 7: %v", shared, families)
	}
	obstest.Validate(t, fleetDoc)
	obstest.Validate(t, replicaDoc)
}

// TestUpstreamCallsMatchDaemonsOverREST: with slurmdbd served over REST
// and slurmctld over the CLI, the fleet's upstream count per daemon equals
// the RPCs the simulated daemons served. REST requests are charged like
// commands, by the replica that made them.
func TestUpstreamCallsMatchDaemonsOverREST(t *testing.T) {
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	newsSrv := httptest.NewServer(env.Feed)
	t.Cleanup(newsSrv.Close)
	fl, err := New(Options{
		Replicas: 3,
		Clock:    env.Clock,
		Runner:   env.Runner,
		Build: func(id string, r slurmcli.Runner) (*core.Server, error) {
			return env.NewServerRunner(newsSrv.URL, core.Config{
				Push:    core.PushConfig{Jitter: -1},
				Backend: core.BackendConfig{Slurmctld: core.BackendCLI, Slurmdbd: core.BackendREST},
			}, r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	served := func() map[string]int64 {
		return map[string]int64{
			"slurmctld": env.Cluster.Ctl.Stats().Total(),
			"slurmdbd":  env.Cluster.DBD.Stats().Total(),
		}
	}
	daemonsBefore, fleetBefore := served(), fl.UpstreamCalls()
	for round := 0; round < 2; round++ {
		for _, user := range env.UserNames[:3] {
			for _, path := range []string{"/", "/api/recent_jobs", "/api/system_status", "/api/cluster_status",
				"/api/myjobs?range=7d", "/api/myjobs/charts", "/api/jobperf", "/api/insights?range=30d"} {
				if rec := fleetGet(t, fl, user, path, ""); rec.Code != http.StatusOK {
					t.Fatalf("%s as %s: status %d", path, user, rec.Code)
				}
			}
		}
		env.Clock.Advance(5 * time.Minute)
		fl.Tick()
	}
	want, got := served(), fl.UpstreamCalls()
	for d := range want {
		want[d] -= daemonsBefore[d]
		got[d] -= fleetBefore[d]
	}
	if want["slurmdbd"] == 0 || want["slurmctld"] == 0 {
		t.Fatalf("the daemons served %v: the walk reached no REST or no CLI source", want)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("fleet upstream calls by daemon = %v, the daemons served %v", got, want)
	}
}

// sloFleetObjectives are tight-window objectives for the dual-view test:
// one page rule that fires after a minute of sustained burn.
func sloFleetObjectives() []slo.Objective {
	return []slo.Objective{{
		Name: "availability", Kind: slo.KindAvailability, Target: 0.9,
		Rules: []slo.Rule{{
			Name: "page", Severity: "page", Burn: 2,
			Short: 2 * time.Minute, Long: 5 * time.Minute,
			For: time.Minute, KeepFor: time.Minute,
		}},
	}}
}

// TestSLOFleetDualView drives one replica's SLIs into sustained burn while
// its peers stay healthy: the replica-local page alert must fire while the
// fleet-level objective — pooled across all replicas — stays met. Then the
// whole fleet burns and the aggregated alert must fire too. Both views stay
// queryable side by side throughout.
func TestSLOFleetDualView(t *testing.T) {
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	newsSrv := httptest.NewServer(env.Feed)
	t.Cleanup(newsSrv.Close)
	fl, err := New(Options{
		Replicas: 3,
		Clock:    env.Clock,
		Runner:   env.Runner,
		Build: func(id string, r slurmcli.Runner) (*core.Server, error) {
			// SLO recording disabled: the script records synthetic SLI
			// events directly, so incidental request traffic can't skew the
			// windows. The aggregator copies these tight objectives from
			// replica r0's engine.
			s, err := env.NewServerRunner(newsSrv.URL, core.Config{
				Push: core.PushConfig{DisableIdlePause: true, Jitter: -1},
				SLO:  core.SLOConfig{Objectives: sloFleetObjectives()},
			}, r)
			if err == nil {
				s.SetSLORecordingDisabled(true)
			}
			return s, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	burner := fl.Server("r0").SLO()
	peers := []*slo.Engine{fl.Server("r1").SLO(), fl.Server("r2").SLO()}

	record := func(eng *slo.Engine, n int, status int) {
		for i := 0; i < n; i++ {
			eng.Record(0.001, status, false, "")
		}
	}

	// Phase 1: r0 burns hard (every request 500), peers serve clean traffic
	// that keeps the pooled bad fraction inside the fleet budget.
	for step := 0; step < 4; step++ {
		record(burner, 10, 500)
		for _, p := range peers {
			record(p, 200, 200)
		}
		env.Clock.Advance(time.Minute)
		fl.Tick()
	}

	localSt := fl.Server("r0").SLO().Status()
	fleetSt := fl.SLOStatus()
	localAlert := localSt.Objectives[0].Alerts[0]
	fleetAlert := fleetSt.Objectives[0].Alerts[0]
	if localAlert.State != "firing" {
		t.Fatalf("replica-local page alert = %q, want firing (short burn %.1f, long burn %.1f)",
			localAlert.State, localAlert.ShortBurn, localAlert.LongBurn)
	}
	if fleetAlert.State != "inactive" {
		t.Fatalf("fleet page alert = %q, want inactive while only one replica burns (short burn %.2f)",
			fleetAlert.State, fleetAlert.ShortBurn)
	}
	if fleetSt.Objectives[0].Budget.Bad == 0 {
		t.Fatal("fleet budget ledger should still count the burning replica's bad events")
	}

	// Phase 2: the whole fleet burns; the pooled view must fire as well.
	for step := 0; step < 8; step++ {
		record(burner, 10, 500)
		for _, p := range peers {
			record(p, 200, 500)
		}
		env.Clock.Advance(time.Minute)
		fl.Tick()
	}
	if st := fl.SLOStatus().Objectives[0].Alerts[0]; st.State != "firing" {
		t.Fatalf("fleet page alert = %q after fleet-wide burn, want firing (short %.2f long %.2f)",
			st.State, st.ShortBurn, st.LongBurn)
	}
	if fired, _, ok := fl.SLO().AlertCounts("availability", "page"); !ok || fired < 1 {
		t.Fatalf("fleet AlertCounts(availability, page) = %d/%v, want fired >= 1", fired, ok)
	}
	// The replica view is unchanged by fleet evaluation: still its own.
	if _, _, ok := fl.Server("r0").SLO().AlertCounts("availability", "page"); !ok {
		t.Fatal("replica-local alert counts must stay queryable")
	}
}

// TestConcurrentPollsWhileTicking races polls on every replica against
// Tick, over rounds that each change the queue. Whatever the interleaving,
// every replica then serves the user one body, the one a fresh single
// server serves. Run it under -race.
func TestConcurrentPollsWhileTicking(t *testing.T) {
	env, fl := newTestFleet(t, 3, nil)
	user := env.UserNames[0]
	u, _ := env.Users.Lookup(user)
	paths := []string{"/api/recent_jobs", "/api/accounts"}
	for round := 0; round < 4; round++ {
		if _, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
			User: user, Account: u.Accounts[0], Partition: "cpu", QOS: "normal",
			TimeLimit: time.Hour, ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		}); err != nil {
			t.Fatal(err)
		}
		env.Clock.Advance(61 * time.Second)
		env.Cluster.Ctl.Tick()

		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); fl.Tick() }()
		for _, id := range fl.Replicas() {
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, path := range paths {
						if rec := fleetGet(t, fl.Server(id), user, path, ""); rec.Code != http.StatusOK {
							t.Errorf("round %d: %s on %s: status %d", round, path, id, rec.Code)
						}
					}
				}()
			}
		}
		wg.Wait()

		ref := newReference(t, env)
		for _, path := range paths {
			want := fleetGet(t, ref, user, path, "").Body.String()
			for _, id := range fl.Live() {
				if got := fleetGet(t, fl.Server(id), user, path, "").Body.String(); got != want {
					t.Fatalf("round %d: %s on %s = %q, a fresh server serves %q", round, path, id, got, want)
				}
			}
		}
	}
}
