package fleet

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/browser"
	"ooddash/internal/core"
	"ooddash/internal/etag"
	"ooddash/internal/obs/obstest"
	"ooddash/internal/push"
	"ooddash/internal/slo"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/workload"
)

// newTestFleet builds a fleet of n replicas over one shared simulated
// environment — N dashboard processes in front of one Slurm.
func newTestFleet(t *testing.T, n int, policy Policy, mutate func(*Options)) (*workload.Env, *Fleet) {
	t.Helper()
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	newsSrv := httptest.NewServer(env.Feed)
	t.Cleanup(newsSrv.Close)
	opts := Options{
		Replicas: n,
		Policy:   policy,
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
	env, fl := newTestFleet(t, 3, PolicyRoundRobin, nil)
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

func TestLBLeastConnPrefersIdleReplica(t *testing.T) {
	env, fl := newTestFleet(t, 3, PolicyLeastConn, nil)
	srv := httptest.NewServer(fl)
	defer srv.Close()
	user := env.UserNames[0]

	// Two held-open SSE streams pin one in-flight request each on the two
	// least-loaded replicas; the next request must land on the idle third.
	var pinned []string
	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/events?widgets=system_status", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(auth.UserHeader, user)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: status %d", i, resp.StatusCode)
		}
		pinned = append(pinned, resp.Header.Get(fleetReplicaHeaderKey))
	}
	if pinned[0] == pinned[1] {
		t.Fatalf("both streams pinned to %s; least-conn should spread", pinned[0])
	}
	rec := fleetGet(t, fl, user, "/api/system_status", "")
	got := rec.Header().Get(fleetReplicaHeaderKey)
	if got == pinned[0] || got == pinned[1] {
		t.Fatalf("poll routed to busy replica %s (streams hold %v)", got, pinned)
	}
}

func TestLBStickyAffinityAndFailover(t *testing.T) {
	env, fl := newTestFleet(t, 3, PolicySticky, nil)
	user := env.UserNames[0]

	first := fleetGet(t, fl, user, "/api/system_status", "").Header().Get(fleetReplicaHeaderKey)
	for i := 0; i < 4; i++ {
		if got := fleetGet(t, fl, user, "/api/system_status", "").Header().Get(fleetReplicaHeaderKey); got != first {
			t.Fatalf("sticky user bounced %s -> %s", first, got)
		}
	}

	// The population spreads: not every user sticks to the same replica.
	distinct := map[string]bool{}
	for _, u := range env.UserNames {
		distinct[fleetGet(t, fl, u, "/api/system_status", "").Header().Get(fleetReplicaHeaderKey)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d users stuck to one replica", len(env.UserNames))
	}

	// Kill the user's replica: passive failover moves them to a stable
	// fallback with no error surfaced.
	if err := fl.Kill(first); err != nil {
		t.Fatal(err)
	}
	rec := fleetGet(t, fl, user, "/api/system_status", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-kill status %d", rec.Code)
	}
	fallback := rec.Header().Get(fleetReplicaHeaderKey)
	if fallback == first || fallback == "" {
		t.Fatalf("failover picked %q (killed %q)", fallback, first)
	}
	for i := 0; i < 3; i++ {
		if got := fleetGet(t, fl, user, "/api/system_status", "").Header().Get(fleetReplicaHeaderKey); got != fallback {
			t.Fatalf("failover not sticky: %s -> %s", fallback, got)
		}
	}
	if fl.met.lbFailovers.Value() == 0 {
		t.Fatal("failover counter never incremented")
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
	env, fl := newTestFleet(t, 3, PolicyRoundRobin, nil)
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
// TTL. Closing one stream pauses that replica's source (pause-when-idle
// sees its own subscribers) while the other keeps refreshing.
func TestSSEStreamsOnTwoReplicasShareOneFill(t *testing.T) {
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
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

	// The second replica's stream goes away: its scheduler pauses the
	// source; the first replica's keeps refreshing.
	streams[1].Close()
	key := "recent_jobs:" + user
	hub1 := fl.Server(fl.Replicas()[1]).PushHub()
	for deadline := time.Now().Add(5 * time.Second); hub1.SubscribersFor(key) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("closed stream still subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	refreshes := func(i int) int64 {
		return fl.Server(fl.Replicas()[i]).PushScheduler().SourceRefreshes()[key]
	}
	r0, r1 := refreshes(0), refreshes(1)
	env.Clock.Advance(40 * time.Second)
	fl.Tick()
	if refreshes(0) != r0+1 || refreshes(1) != r1 {
		t.Fatalf("after the second stream closed: refreshes %d -> %d and %d -> %d, want one more on the first replica only",
			r0, refreshes(0), r1, refreshes(1))
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
// costs one accounting call fleet-wide, and every replica serves each view
// the same bytes.
func TestHistoryFillSharedAcrossReplicas(t *testing.T) {
	env, fl := newTestFleet(t, 3, PolicyRoundRobin, nil)
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
	if got := fl.UpstreamCalls()["slurmdbd"] - before; got != 1 {
		t.Fatalf("two users x two ranges x 3 replicas cost %d accounting calls, want 1", got)
	}
}

// TestJoinServesSharedCacheAtOnce: a replica that joins a warm fleet
// serves every push widget the same bytes and ETag as the rest from its
// first request, at no upstream cost.
func TestJoinServesSharedCacheAtOnce(t *testing.T) {
	env, fl := newTestFleet(t, 1, PolicyRoundRobin, nil)
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
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
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

func TestFleetMetricsExposition(t *testing.T) {
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
	fleetGet(t, fl, env.UserNames[0], "/api/system_status", "")
	rec := httptest.NewRecorder()
	if err := fl.Metrics().WritePrometheus(rec); err != nil {
		t.Fatal(err)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"ooddash_fleet_replicas_live 2",
		"ooddash_fleet_lb_requests_total",
		"ooddash_fleet_upstream_rpcs_total",
		"ooddash_fleet_slo_burn_rate",
		"ooddash_fleet_slo_alert_state",
		"ooddash_fleet_slo_budget_spent_ratio",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	obstest.Validate(t, body)
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
		Policy:   PolicyRoundRobin,
		Clock:    env.Clock,
		Runner:   env.Runner,
		Build: func(id string, r slurmcli.Runner) (*core.Server, error) {
			// SLO recording disabled: the script records synthetic SLI
			// events directly, so incidental request traffic can't skew the
			// windows. The aggregator copies these tight objectives from
			// replica r0's engine.
			return env.NewServerRunner(newsSrv.URL, core.Config{
				Push: core.PushConfig{DisableIdlePause: true, Jitter: -1},
				SLO:  core.SLOConfig{Disabled: true, Objectives: sloFleetObjectives()},
			}, r)
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
	env, fl := newTestFleet(t, 3, PolicyRoundRobin, nil)
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
