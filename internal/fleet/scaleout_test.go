package fleet

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ooddash/internal/browser"
)

// scalePhase is one phase's outcome in the scale-out test.
type scalePhase struct {
	calls  int64 // upstream calls reaching the daemons after round 0
	failed int64 // widget fetches that errored with no cached fallback
}

// runScalePhase drives clients browsers through 6 homepage rounds, 75 s of
// simulated time apart, against a fresh fleet behind a real HTTP listener.
// Each round submits the same seeded batch of 5 jobs, so payloads change
// and every phase sees identical churn. killRound >= 0 kills the first
// replica, whose caches the others share, just before that round's page
// loads.
func runScalePhase(t *testing.T, replicas, clients int, noCoherence bool, killRound int) scalePhase {
	const (
		rounds   = 6
		interval = 75 * time.Second
	)
	env, fl := newTestFleet(t, replicas, PolicyRoundRobin, func(o *Options) {
		o.NoCoherence = noCoherence
	})
	sc := &statusCounter{next: fl}
	srv := httptest.NewServer(sc)
	t.Cleanup(srv.Close)
	httpc := &http.Client{Timeout: 30 * time.Second}
	browsers := make([]*browser.Browser, clients)
	for i := range browsers {
		browsers[i] = browser.New(env.UserNames[i%len(env.UserNames)], srv.URL, httpc, env.Clock)
	}

	var p scalePhase
	var failed atomic.Int64
	rng := rand.New(rand.NewSource(7))
	var base map[string]int64
	for round := 0; round < rounds; round++ {
		if round == killRound {
			if err := fl.Kill(fl.Replicas()[0]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for _, b := range browsers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				load := b.LoadHomepage()
				failed.Add(int64(load.Failed))
			}()
		}
		wg.Wait()
		env.SubmitRandom(rng, 5)
		env.Clock.Advance(interval)
		env.Cluster.Ctl.Tick()
		fl.Tick()
		if round == 0 {
			// Round 0's cost is the cold-start fill burst, not the
			// steady-state refresh load the flatness gate is about.
			base = fl.UpstreamCalls()
		}
	}
	for d, n := range fl.UpstreamCalls() {
		p.calls += n - base[d]
	}
	p.failed = failed.Load()

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.c5xx != 0 {
		t.Errorf("%d page-level 5xx through the LB", sc.c5xx)
	}
	t.Logf("%d replicas, %d clients: %d upstream calls, %d failed widgets",
		replicas, clients, p.calls, p.failed)
	return p
}

// TestScaleOutKeepsUpstreamRPCsFlat is the §2.4 claim at fleet scale:
// going from 1 replica x 50 clients to 4 replicas x 500 clients costs at
// most 1.3x the upstream calls, because every replica reads one shared
// cache tier. The no-coherence ablation (a private cache per replica) must
// cost at least 3x, or the shared tier is not what keeps the load flat. A
// replica-kill phase must fail no widget fetch. Every phase serves zero
// page-level 5xx.
func TestScaleOutKeepsUpstreamRPCsFlat(t *testing.T) {
	var baseline, scaled, noCoherence, kill scalePhase
	for _, ph := range []struct {
		name              string
		replicas, clients int
		noCoherence       bool
		killRound         int
		out               *scalePhase
	}{
		{"baseline", 1, 50, false, -1, &baseline},
		{"scaled", 4, 500, false, -1, &scaled},
		{"no_coherence", 4, 500, true, -1, &noCoherence},
		{"kill", 4, 50, false, 3, &kill},
	} {
		t.Run(ph.name, func(t *testing.T) {
			*ph.out = runScalePhase(t, ph.replicas, ph.clients, ph.noCoherence, ph.killRound)
		})
	}
	if baseline.calls == 0 {
		t.Fatal("baseline issued no upstream calls after warm-up")
	}
	ratio := float64(scaled.calls) / float64(baseline.calls)
	ablation := float64(noCoherence.calls) / float64(baseline.calls)
	t.Logf("upstream calls vs baseline: scaled %.2fx, no-coherence %.2fx", ratio, ablation)
	if ratio > 1.3 {
		t.Errorf("scaled fleet costs %.2fx the baseline's upstream calls, want <= 1.3x", ratio)
	}
	if ablation < 3 {
		t.Errorf("no-coherence ablation costs only %.2fx the baseline, want >= 3x", ablation)
	}
	if kill.failed != 0 {
		t.Errorf("kill phase failed %d widget fetches, want 0", kill.failed)
	}
}
