package ooddash

// End-to-end tests over a real HTTP listener on the simulated clock. The
// first is the live-update push subsystem's central economic claim:
// upstream Slurm RPC load is a function of the refresh schedule, not of how
// many clients are connected. Fifty SSE clients ride through six TTL cycles
// and the slurmctld+slurmdbd command count must stay within 2x what a
// SINGLE polling browser costs over the same cycles — the fan-out is free,
// the refresh is shared. The second is the homepage smoke run: many
// polling browsers, zero failed widgets.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ooddash/internal/browser"
	"ooddash/internal/core"
	"ooddash/internal/push"
	"ooddash/internal/slurmcli"
	"ooddash/internal/workload"
)

// rpcCountingRunner counts commands that actually reach the simulated
// daemons; it sits beneath the server's cache/resilience path, so server
// cache hits never increment it.
type rpcCountingRunner struct {
	next slurmcli.Runner
	n    atomic.Int64
}

func (c *rpcCountingRunner) Run(name string, args ...string) (string, error) {
	c.n.Add(1)
	return c.next.Run(name, args...)
}

// newPushStack boots a dashboard with an RPC counter installed beneath it.
func newPushStack(t *testing.T) (*workload.Env, *core.Server, *rpcCountingRunner, string) {
	t.Helper()
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	counter := &rpcCountingRunner{next: env.Runner}
	env.Runner = counter
	newsSrv := httptest.NewServer(env.Feed)
	t.Cleanup(newsSrv.Close)
	server, err := env.NewServer(newsSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	webSrv := httptest.NewServer(server)
	t.Cleanup(webSrv.Close)
	return env, server, counter, webSrv.URL
}

// drainStreams waits until every stream has applied the newest version the
// hub holds for user's homepage widgets, failing after a deadline. SSE
// delivery is asynchronous even though the clock is simulated; applied is
// poked by the streams' event callbacks after each applied event.
func drainStreams(t *testing.T, server *core.Server, user string, streams []*browser.EventStream, applied <-chan struct{}) {
	t.Helper()
	var want int64
	for _, w := range browser.HomepageWidgets() {
		for _, snap := range server.PushHub().Snapshots() {
			if snap.Widget == w.Name && (snap.Key == w.Name || snap.Key == w.Name+":"+user) {
				want = max(want, snap.Version)
			}
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		behind := 0
		for _, st := range streams {
			if st.Stats().LastID < want {
				behind++
			}
		}
		if behind == 0 {
			return
		}
		select {
		case <-applied:
		case <-deadline:
			t.Fatalf("%d of %d streams never applied hub version %d", behind, len(streams), want)
		}
	}
}

func TestPushFanOutKeepsUpstreamRPCsFlat(t *testing.T) {
	const (
		rounds    = 6
		interval  = 75 * time.Second // > every homepage TTL except announcements/storage
		clients   = 50
		churnSeed = 99
		churnJobs = 5
	)

	// Phase 1: the single-client polling baseline. One browser reloads the
	// homepage every interval while the same deterministic job churn runs.
	env, _, counter, url := newPushStack(t)
	rng := rand.New(rand.NewSource(churnSeed))
	b := browser.New(env.UserNames[0], url, nil, env.Clock)
	before := counter.n.Load()
	for round := 0; round < rounds; round++ {
		if load := b.LoadHomepage(); !load.FullyPainted() {
			t.Fatalf("baseline round %d: %+v", round, load.Widgets)
		}
		env.SubmitRandom(rng, churnJobs)
		env.Clock.Advance(interval)
		env.Cluster.Ctl.Tick()
	}
	baselineRPCs := counter.n.Load() - before
	if baselineRPCs == 0 {
		t.Fatal("baseline phase issued no upstream RPCs")
	}

	// Phase 2: a fresh identical stack, but 50 SSE clients of the same user
	// instead of one poller. The refresh scheduler fetches each source once
	// per TTL and the hub fans the snapshot out to everyone.
	env2, server2, counter2, url2 := newPushStack(t)
	rng2 := rand.New(rand.NewSource(churnSeed))
	user := env2.UserNames[0]
	browsers := make([]*browser.Browser, clients)
	streams := make([]*browser.EventStream, clients)
	applied := make(chan struct{}, 1)
	onEvent := func(push.Event) {
		select {
		case applied <- struct{}{}:
		default:
		}
	}
	before2 := counter2.n.Load()
	for i := range browsers {
		browsers[i] = browser.New(user, url2, nil, env2.Clock)
		st, err := browsers[i].OpenEventStream(browser.HomepageWidgets(), onEvent)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		defer st.Close()
		streams[i] = st
	}
	drainStreams(t, server2, user, streams, applied)
	for round := 0; round < rounds; round++ {
		env2.SubmitRandom(rng2, churnJobs)
		env2.Clock.Advance(interval)
		env2.Cluster.Ctl.Tick()
		if n := server2.TickPush(); n == 0 {
			t.Fatalf("round %d: scheduler refreshed nothing over a %v cycle", round, interval)
		}
		drainStreams(t, server2, user, streams, applied)
		// A pushed cache makes page views free after every round: the hub
		// sends every change, so while the stream lives each widget's
		// cached copy is current, through quiet cycles that push nothing
		// and outlast its client TTL too.
		if load := browsers[0].LoadHomepage(); load.NetworkFetches != 0 || load.InstantPaints != 5 {
			t.Fatalf("SSE-fed page load after round %d: network=%d instant=%d, want 0/5",
				round+1, load.NetworkFetches, load.InstantPaints)
		}
	}
	sseRPCs := counter2.n.Load() - before2

	// Every client must have a hot cache: the initial replay alone delivers
	// all five homepage widgets, and churn-driven rounds add more.
	for i, st := range streams {
		if got := st.Stats().Events; got < 5 {
			t.Fatalf("client %d applied only %d events", i, got)
		}
		if st.Err() != nil {
			t.Fatalf("client %d stream error: %v", i, st.Err())
		}
	}
	var delivered int64
	for _, st := range streams {
		delivered += st.Stats().Events
	}
	if delivered < int64(clients)*6 {
		t.Fatalf("only %d events delivered across %d clients; churn rounds published nothing", delivered, clients)
	}

	// The acceptance bound: 50 clients' upstream cost stays within 2x of ONE
	// polling client's.
	if sseRPCs > 2*baselineRPCs {
		t.Fatalf("upstream RPCs: sse(%d clients)=%d > 2 x baseline(1 client)=%d",
			clients, sseRPCs, baselineRPCs)
	}
	t.Logf("upstream RPCs: baseline(1 poller)=%d, sse(%d clients)=%d (%.2fx), %d events delivered",
		baselineRPCs, clients, sseRPCs, float64(sseRPCs)/float64(baselineRPCs), delivered)

	// Clean shutdown propagates: every stream ends without error.
	server2.Close()
	for i, st := range streams {
		select {
		case <-st.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("client %d stream still open after server close", i)
		}
		if st.Err() != nil {
			t.Fatalf("client %d shutdown error: %v", i, st.Err())
		}
	}
}

// TestHomepageSmokeNoFailedWidgets drives 25 browsers, cycling through the
// SmallSpec users, through 8 homepage rounds 5 s of simulated time apart
// against a real HTTP listener: no widget fetch may fail. Browser and
// server caches age together on the shared clock, so the rounds mix fresh
// client paints, revalidations and server fills.
func TestHomepageSmokeNoFailedWidgets(t *testing.T) {
	env, _, _, url := newPushStack(t)
	httpc := &http.Client{Timeout: 10 * time.Second}
	browsers := make([]*browser.Browser, 25)
	for i := range browsers {
		browsers[i] = browser.New(env.UserNames[i%len(env.UserNames)], url, httpc, env.Clock)
	}
	var failed, fetches atomic.Int64
	for round := 0; round < 8; round++ {
		var wg sync.WaitGroup
		for _, b := range browsers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				load := b.LoadHomepage()
				failed.Add(int64(load.Failed))
				fetches.Add(int64(load.NetworkFetches))
			}()
		}
		wg.Wait()
		env.Clock.Advance(5 * time.Second)
		env.Cluster.Ctl.Tick()
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d widget fetches failed over 8 rounds of 25 browsers", n)
	}
	t.Logf("200 page loads, %d network fetches, 0 failed widgets", fetches.Load())
}
