package fleet

import (
	"context"
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
		Replicas:         n,
		Policy:           policy,
		Clock:            env.Clock,
		Runner:           env.Runner,
		HeartbeatTimeout: 40 * time.Second,
		Build: func(id string, r slurmcli.Runner) (*core.Server, error) {
			return env.NewServerRunner(newsSrv.URL, core.Config{
				Push: core.PushConfig{DisableIdlePause: true, Jitter: -1},
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

// pushWidgets are the widget table's seven push-enabled widgets: the ones a
// fleet partitions by owner and serves from peers.
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

// TestPeerServesOwnerBytesWithMatchingETag: for every push widget the owner
// poll, the peer poll and the peer hub's snapshot carry one body — identical
// bytes and ETag, the tag being the hash of those bytes — a client that
// validated against the owner revalidates against the peer, and a per-user
// widget keeps its private cache class on the peer.
func TestPeerServesOwnerBytesWithMatchingETag(t *testing.T) {
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
	user := env.UserNames[0]
	for _, w := range pushWidgets {
		t.Run(w.name, func(t *testing.T) {
			key := w.name
			if w.perUser {
				key += ":" + user
			}
			ownerID := fl.Owner(key)
			peerID := fl.Replicas()[(slices.Index(fl.Replicas(), ownerID)+1)%2]
			owner, peer := fl.Server(ownerID), fl.Server(peerID)

			ownerRec := fleetGet(t, owner, user, w.path, "")
			if ownerRec.Code != http.StatusOK || ownerRec.Header().Get("X-Ooddash-Fleet") != "" {
				t.Fatalf("owner serve: status %d fleet header %q", ownerRec.Code, ownerRec.Header().Get("X-Ooddash-Fleet"))
			}
			peerRec := fleetGet(t, peer, user, w.path, "")
			if peerRec.Code != http.StatusOK {
				t.Fatalf("peer serve: status %d", peerRec.Code)
			}
			if peerRec.Header().Get("X-Ooddash-Fleet") != "peer" {
				t.Fatal("peer response not marked as fleet-served")
			}
			if cc, vary := peerRec.Header().Get("Cache-Control"), peerRec.Header().Get("Vary"); w.perUser &&
				(cc != "private" || vary != auth.UserHeader) || !w.perUser && (cc != "" || vary != "") {
				t.Fatalf("peer cache class: Cache-Control %q, Vary %q (per-user %v)", cc, vary, w.perUser)
			}
			if peerRec.Body.String() != ownerRec.Body.String() {
				t.Fatalf("peer bytes differ from owner bytes:\n%q\nvs\n%q", peerRec.Body.String(), ownerRec.Body.String())
			}
			tag := ownerRec.Header().Get("Etag")
			if tag == "" || peerRec.Header().Get("Etag") != tag {
				t.Fatalf("etag mismatch: owner %q peer %q", tag, peerRec.Header().Get("Etag"))
			}
			snap, ok := peer.PushHub().Latest(key)
			if !ok {
				t.Fatalf("peer hub holds no snapshot of %s", key)
			}
			if string(snap.Body.Bytes) != ownerRec.Body.String() || snap.Body.Tag != tag {
				t.Fatalf("peer hub body %q (%s) differs from the served %q (%s)", snap.Body.Bytes, snap.Body.Tag, ownerRec.Body.String(), tag)
			}
			if snap.Body.Tag != etag.For(snap.Body.Bytes) {
				t.Fatalf("hub tag %s is not the hash of its bytes (%s)", snap.Body.Tag, etag.For(snap.Body.Bytes))
			}

			// A client that validated against the owner revalidates against
			// the peer — cross-replica 304.
			if rec := fleetGet(t, peer, user, w.path, tag); rec.Code != http.StatusNotModified {
				t.Fatalf("peer revalidation status %d, want 304", rec.Code)
			}

			// Exactly one replica polls the source: its owner.
			if err := fl.CheckExclusiveOwnership(); err != nil {
				t.Fatal(err)
			}
			if slices.Contains(peer.PushSourceKeys(), key) {
				t.Fatalf("non-owner replica scheduled %s", key)
			}
			if !slices.Contains(owner.PushSourceKeys(), key) {
				t.Fatalf("owner replica did not schedule %s", key)
			}
		})
	}
}

func TestPropagationFeedsPeerSSE(t *testing.T) {
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
	user := env.UserNames[0]
	key := "recent_jobs:" + user
	ownerID := fl.Owner(key)
	var peerID string
	for _, id := range fl.Replicas() {
		if id != ownerID {
			peerID = id
		}
	}
	peerSrv := httptest.NewServer(fl.Server(peerID))
	defer peerSrv.Close()

	b := browser.New(user, peerSrv.URL, nil, env.Clock)
	events := make(chan push.Event, 64)
	st, err := b.OpenEventStream(browser.HomepageWidgets(), func(ev push.Event) { events <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Subscribe-time replay primes the stream (the peer ensures fresh
	// snapshots via the owners).
	drainUntil(t, events, "recent_jobs", 5*time.Second)

	// New upstream work must reach the peer-held stream purely via
	// owner refresh + fleet propagation.
	if _, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
		User: user, Account: "grp01", Partition: "cpu", QOS: "normal",
		TimeLimit: time.Hour, ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024},
	}); err != nil {
		t.Fatal(err)
	}
	env.Clock.Advance(80 * time.Second)
	env.Cluster.Ctl.Tick()
	fl.Tick()
	drainUntil(t, events, "recent_jobs", 5*time.Second)

	if fl.met.propagations.Value() == 0 {
		t.Fatal("no propagations recorded")
	}
	if err := fl.CheckExclusiveOwnership(); err != nil {
		t.Fatal(err)
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

func TestJoinRebalancesOwnership(t *testing.T) {
	env, fl := newTestFleet(t, 1, PolicyRoundRobin, nil)
	// Touch a spread of sources so there is ownership to move.
	for i := 0; i < 6; i++ {
		fleetGet(t, fl, env.UserNames[i], "/api/recent_jobs", "")
	}
	fleetGet(t, fl, env.UserNames[0], "/api/system_status", "")
	only := fl.Replicas()[0]
	before := len(fl.Server(only).PushSourceKeys())
	if before == 0 {
		t.Fatal("no sources registered before join")
	}

	id, err := fl.Join()
	if err != nil {
		t.Fatal(err)
	}
	after := len(fl.Server(only).PushSourceKeys())
	taken := len(fl.Server(id).PushSourceKeys())
	if taken == 0 {
		t.Fatalf("joined replica took no sources (%d keys total)", before)
	}
	if after+taken != before {
		t.Fatalf("sources lost in rebalance: %d -> %d + %d", before, after, taken)
	}
	if err := fl.CheckExclusiveOwnership(); err != nil {
		t.Fatal(err)
	}
	if fl.met.ownerChanges.Value() == 0 {
		t.Fatal("owner-change counter never incremented")
	}
	// The newcomer's sources were refreshed at handover: every hub holds
	// them and a poll through the LB succeeds wherever it lands.
	for i := 0; i < 4; i++ {
		if rec := fleetGet(t, fl, env.UserNames[0], "/api/recent_jobs", ""); rec.Code != http.StatusOK {
			t.Fatalf("post-join poll %d: status %d", i, rec.Code)
		}
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
		Replicas:         3,
		Policy:           PolicyRoundRobin,
		Clock:            env.Clock,
		Runner:           env.Runner,
		HeartbeatTimeout: 40 * time.Second,
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

// TestReapDropsIdleSourceEverywhere drives the idle reaper on the simulated
// clock: a per-user source first requested through a peer is registered on
// its owner; 10 minutes plus one tick without a request or an SSE
// subscriber unregisters it on the owner and drops it from every hub; the
// next peer poll ensures it again; and an SSE subscriber on a peer keeps it
// through the same wait.
func TestReapDropsIdleSourceEverywhere(t *testing.T) {
	env, fl := newTestFleet(t, 3, PolicyRoundRobin, nil)
	user := env.UserNames[2]
	key := "recent_jobs:" + user
	ownerID := fl.Owner(key)
	owner := fl.Server(ownerID)
	peer := fl.Server(fl.Replicas()[(slices.Index(fl.Replicas(), ownerID)+1)%3]) // any non-owner
	poll := func() {
		t.Helper()
		if rec := fleetGet(t, peer, user, "/api/recent_jobs", ""); rec.Code != http.StatusOK ||
			rec.Header().Get("X-Ooddash-Fleet") != "peer" {
			t.Fatalf("peer poll: status %d fleet header %q", rec.Code, rec.Header().Get("X-Ooddash-Fleet"))
		}
	}
	registered := func() bool { return slices.Contains(owner.PushSourceKeys(), key) }
	holders := func() (n int) {
		for _, id := range fl.Replicas() {
			if _, ok := fl.Server(id).PushHub().Latest(key); ok {
				n++
			}
		}
		return n
	}
	wait := func() {
		t.Helper()
		before := fl.met.reaped.Value()
		env.Clock.Advance(reapIdle)
		fl.Tick()
		if !registered() || fl.met.reaped.Value() != before {
			t.Fatal("source reaped at exactly the idle cutoff")
		}
		env.Clock.Advance(5 * time.Second)
		fl.Tick()
	}

	poll()
	if !registered() || holders() != 3 {
		t.Fatalf("after a peer poll: registered on owner %v, held by %d hubs, want true and 3", registered(), holders())
	}
	wait()
	if registered() || holders() != 0 {
		t.Fatalf("idle source survived: registered on owner %v, held by %d hubs", registered(), holders())
	}
	var expo strings.Builder
	if err := fl.Metrics().WritePrometheus(&expo); err != nil ||
		!strings.Contains(expo.String(), "ooddash_fleet_sources_reaped_total 1\n") {
		t.Fatalf("reaped counter not 1 (%v):\n%s", err, expo.String())
	}

	// The next peer poll finds nothing held and ensures the source again.
	poll()
	if !registered() {
		t.Fatal("peer poll after the reap did not re-register the source")
	}

	// An SSE subscriber on the peer keeps the source through the same wait.
	srv := httptest.NewServer(peer)
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/events?widgets=recent_jobs", nil)
	req.Header.Set(auth.UserHeader, user)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wait()
	if !registered() || holders() != 3 || fl.met.reaped.Value() != 1 {
		t.Fatalf("watched source reaped: registered %v, held by %d hubs, reaped %d",
			registered(), holders(), fl.met.reaped.Value())
	}
}

// TestPeerConcurrentEnsureWhileTickDrains races peer Ensures for one key,
// from every peer at once, against Tick refreshing the owner and draining
// its tap, over rounds that each change the key's content. Whatever the
// interleaving, every healthy replica's hub must end on the owner's newest
// body. Run it under -race with -count=10.
func TestPeerConcurrentEnsureWhileTickDrains(t *testing.T) {
	env, fl := newTestFleet(t, 3, PolicyRoundRobin, nil)
	user := env.UserNames[0]
	src := core.FleetSource{Widget: "recent_jobs", Key: "recent_jobs:" + user,
		Path: "/api/recent_jobs", User: user, TTL: 30 * time.Second}
	ownerID := fl.Owner(src.Key)
	fleetGet(t, fl.Server(ownerID), user, src.Path, "") // registers on the owner
	for round := 0; round < 4; round++ {
		if _, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
			User: user, Account: "grp01", Partition: "cpu", QOS: "normal",
			TimeLimit: time.Hour, ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		}); err != nil {
			t.Fatal(err)
		}
		env.Clock.Advance(src.TTL + time.Second)
		env.Cluster.Ctl.Tick()

		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); fl.Tick() }()
		for _, id := range fl.Replicas() {
			b := &binding{fl: fl, rep: fl.byID[id]}
			for g := 0; id != ownerID && g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, ok := b.Ensure(context.Background(), src); !ok {
						t.Errorf("round %d: Ensure via %s failed", round, id)
					}
				}()
			}
		}
		wg.Wait()

		want, _ := fl.Server(ownerID).PushHub().Latest(src.Key)
		if want.Body.Tag != etag.For(want.Body.Bytes) {
			t.Fatalf("round %d: owner tag %q is not the hash of its bytes %q", round, want.Body.Tag, want.Body.Bytes)
		}
		for _, id := range fl.Live() {
			if got, _ := fl.Server(id).PushHub().Latest(src.Key); got.Body.Tag != want.Body.Tag ||
				string(got.Body.Bytes) != string(want.Body.Bytes) {
				t.Fatalf("round %d: replica %s holds %q (%s), owner's newest is %q (%s)",
					round, id, got.Body.Bytes, got.Body.Tag, want.Body.Bytes, want.Body.Tag)
			}
		}
	}
}
