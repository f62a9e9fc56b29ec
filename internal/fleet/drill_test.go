package fleet

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/browser"
	"ooddash/internal/push"
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
// -race: kill a replica mid-traffic, with an SSE stream held on it, and
// assert
//
//	(1) the stream ends with the shutdown event,
//	(2) clients see zero page-level 5xx and zero failed widget fetches,
//	    before and after the kill, and
//	(3) the survivors serve every sampled view exactly as a fresh single
//	    server does: the killed replica held no state anyone needs.
func TestDrillReplicaKill(t *testing.T) {
	const interval = 75 * time.Second
	env, fl := newTestFleet(t, 3, PolicyRoundRobin, nil)
	sc := &statusCounter{next: fl}
	srv := httptest.NewServer(sc)
	defer srv.Close()

	browsers := make([]*browser.Browser, 6)
	for i := range browsers {
		browsers[i] = browser.New(env.UserNames[i%len(env.UserNames)], srv.URL, nil, env.Clock)
	}
	// round runs one tick of simulated time plus every browser's homepage
	// load.
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
	}

	round("warm-1")
	round("warm-2")

	// The victim is the first replica, whose caches every replica shares.
	victim := fl.Replicas()[0]
	victimSrv := httptest.NewServer(fl.Server(victim))
	defer victimSrv.Close()
	req, err := http.NewRequest(http.MethodGet, victimSrv.URL+"/api/events?widgets=system_status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(auth.UserHeader, env.UserNames[0])
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	names := make(chan string, 16)
	go func() {
		defer close(names)
		dec := push.NewDecoder(resp.Body)
		for {
			ev, err := dec.Next()
			if err != nil {
				return
			}
			names <- ev.Name
		}
	}()
	if name := <-names; name != "system_status" {
		t.Fatalf("first event on the victim's stream = %q, want the replay", name)
	}

	if err := fl.Kill(victim); err != nil {
		t.Fatal(err)
	}
	var sawShutdown bool
	for name := range names {
		sawShutdown = sawShutdown || name == "shutdown"
	}
	if !sawShutdown {
		t.Fatal("the killed replica's stream ended without the shutdown event")
	}
	if slices.Contains(fl.Live(), victim) {
		t.Fatal("victim still listed live after the kill")
	}

	// Immediately after the kill the LB fails over: no 5xx, no failed
	// fetches.
	for i, b := range browsers {
		if load := b.LoadPage(browser.HomepageWidgets()); load.Failed > 0 {
			t.Fatalf("post-kill browser %d failed %d widget fetches", i, load.Failed)
		}
	}
	round("post-1")
	round("post-2")

	ref := newReference(t, env)
	for _, user := range env.UserNames[:3] {
		for _, w := range browser.HomepageWidgets() {
			want := fleetGet(t, ref, user, w.Path, "").Body.String()
			for _, id := range fl.Live() {
				if got := fleetGet(t, fl.Server(id), user, w.Path, "").Body.String(); got != want {
					t.Fatalf("survivor %s serves %s as %s differently from a fresh server", id, w.Path, user)
				}
			}
		}
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.c5xx != 0 {
		t.Fatalf("%d page-level 5xx responses during the drill, want 0", sc.c5xx)
	}
}
