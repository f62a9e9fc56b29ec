package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ooddash/internal/browser"
)

// statusCounter records page-level response classes served through the LB.
type statusCounter struct {
	next http.Handler
	mu   sync.Mutex
	c5xx int
}

func (s *statusCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.next.ServeHTTP(rec, r)
	if rec.code >= 500 {
		s.mu.Lock()
		s.c5xx++
		s.mu.Unlock()
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// TestDrillReplicaKill is the fleet chaos drill `make drills` runs under
// -race: kill the replica that owns system_status mid-traffic and assert
//
//	(1) re-election completes within one tick of heartbeat expiry,
//	(2) clients see zero page-level 5xx and zero failed widget fetches,
//	(3) no source is ever polled by two replicas in the same round.
func TestDrillReplicaKill(t *testing.T) {
	const interval = 75 * time.Second
	env, fl := newTestFleet(t, 3, PolicyRoundRobin, func(o *Options) {
		o.HeartbeatTimeout = interval / 2
	})
	sc := &statusCounter{next: fl}
	srv := httptest.NewServer(sc)
	defer srv.Close()

	browsers := make([]*browser.Browser, 6)
	for i := range browsers {
		browsers[i] = browser.New(env.UserNames[i%len(env.UserNames)], srv.URL, nil, env.Clock)
	}
	refreshCounts := func() map[string]map[string]int64 { return fl.SourceRefreshes() }
	prev := refreshCounts()

	// round runs one tick of simulated time plus every browser's homepage
	// load, then asserts the single-poller invariant for the round.
	round := func(name string) {
		t.Helper()
		env.Clock.Advance(interval)
		env.Cluster.Ctl.Tick()
		fl.Tick()
		for i, b := range browsers {
			if load := b.LoadPage(browser.HomepageWidgets()); load.Failed > 0 {
				t.Fatalf("%s: browser %d failed %d widget fetches", name, i, load.Failed)
			}
		}
		cur := refreshCounts()
		polled := map[string][]string{}
		for id, counts := range cur {
			for key, n := range counts {
				if n > prev[id][key] {
					polled[key] = append(polled[key], id)
				}
			}
		}
		for key, ids := range polled {
			if len(ids) > 1 {
				t.Fatalf("%s: source %q polled by %d replicas %v in one round", name, key, len(ids), ids)
			}
		}
		prev = cur
		if err := fl.CheckExclusiveOwnership(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	// Warm-up: traffic registers sources on their owners and propagation
	// fills every replica's hub.
	round("warm-1")
	round("warm-2")

	victim := fl.Owner("system_status")
	if victim == "" {
		t.Fatal("system_status has no owner after warm-up")
	}
	if err := fl.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// Immediately after the kill — before any heartbeat expiry — the LB
	// fails over and peers serve their propagated copies: no 5xx, no
	// failed fetches, even for sources the corpse still nominally owns.
	for i, b := range browsers {
		if load := b.LoadPage(browser.HomepageWidgets()); load.Failed > 0 {
			t.Fatalf("post-kill browser %d failed %d widget fetches", i, load.Failed)
		}
	}

	// One tick later the corpse's heartbeat has aged past the timeout:
	// detection, ring rebuild, and re-election all happen in that tick.
	round("handover")
	if got := fl.Owner("system_status"); got == victim || got == "" {
		t.Fatalf("system_status owner after handover = %q (victim %q)", got, victim)
	}
	for _, id := range fl.Live() {
		if id == victim {
			t.Fatal("victim still listed live after handover")
		}
	}
	if fl.met.ownerChanges.Value() == 0 {
		t.Fatal("no owner changes recorded across the kill")
	}
	if fl.met.hbExpiries.Value() == 0 {
		t.Fatal("no heartbeat expiry recorded")
	}

	// Steady state resumes on the survivors.
	round("post-1")
	round("post-2")

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.c5xx != 0 {
		t.Fatalf("%d page-level 5xx responses during the drill, want 0", sc.c5xx)
	}
}
