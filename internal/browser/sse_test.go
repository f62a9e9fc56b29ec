package browser

import (
	"net/http/httptest"
	"testing"
	"time"

	"ooddash/internal/clientcache"
	"ooddash/internal/core"
	"ooddash/internal/push"
	"ooddash/internal/slurm"
	"ooddash/internal/workload"
)

// sseStack is stack plus a handle on the core server, so tests can drive the
// push scheduler and shut the stream side down.
func sseStack(t *testing.T) (*workload.Env, *core.Server, string) {
	t.Helper()
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	newsSrv := httptest.NewServer(env.Feed)
	t.Cleanup(newsSrv.Close)
	server, err := env.NewServer(newsSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	webSrv := httptest.NewServer(server)
	t.Cleanup(webSrv.Close)
	return env, server, webSrv.URL
}

func TestEventStreamKeepsCacheHot(t *testing.T) {
	env, server, url := sseStack(t)
	user := env.UserNames[0]
	b := New(user, url, nil, env.Clock)

	events := make(chan push.Event, 64)
	st, err := b.OpenEventStream(HomepageWidgets(), func(ev push.Event) { events <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The subscribe-time replay primes all five widgets without a page load.
	seen := make(map[string]bool)
	deadline := time.After(5 * time.Second)
	for len(seen) < 5 {
		select {
		case ev := <-events:
			seen[ev.Name] = true
		case <-deadline:
			t.Fatalf("initial replay incomplete, saw %v", seen)
		}
	}
	load := b.LoadHomepage()
	if load.InstantPaints != 5 || load.NetworkFetches != 0 {
		t.Fatalf("SSE-primed load: instant=%d network=%d, want 5/0", load.InstantPaints, load.NetworkFetches)
	}

	// New work flows to the cache without the client polling: submit a job,
	// run a TTL cycle, and wait for the pushed recent_jobs snapshot.
	before := st.Stats().LastID
	if _, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
		User: user, Account: "grp01", Partition: "cpu", QOS: "normal",
		TimeLimit: time.Hour, ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024},
	}); err != nil {
		t.Fatal(err)
	}
	env.Clock.Advance(80 * time.Second)
	env.Cluster.Ctl.Tick()
	if n := server.TickPush(); n == 0 {
		t.Fatal("TickPush refreshed nothing")
	}
	deadline = time.After(5 * time.Second)
	for {
		var ev push.Event
		select {
		case ev = <-events:
		case <-deadline:
			t.Fatal("no recent_jobs push after TTL cycle")
		}
		if ev.Name == "recent_jobs" && ev.ID > before {
			break
		}
	}
	// The pushed snapshot re-stamped the cache at the advanced clock: the
	// widget paints fresh with zero network even though its TTL (30s) expired
	// since the page last polled it.
	jobs := b.LoadPage([]WidgetRequest{{Name: "recent_jobs", Path: "/api/recent_jobs", TTL: 30 * time.Second}})
	if w := jobs.Widgets[0]; w.Source != clientcache.SourceFresh || jobs.NetworkFetches != 0 {
		t.Fatalf("pushed widget: source=%s network=%d, want cache-fresh/0", w.Source, jobs.NetworkFetches)
	}
	if st.Stats().LastID <= before {
		t.Fatalf("LastID did not advance past %d", before)
	}

	// Server shutdown ends the stream cleanly; the browser falls back to
	// plain polling against the still-running HTTP mux.
	server.Close()
	select {
	case <-st.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end on server close")
	}
	if st.Err() != nil {
		t.Fatalf("stream ended with error: %v", st.Err())
	}
	if st.Alive() {
		t.Fatal("Alive() after close")
	}
	env.Clock.Advance(2 * time.Minute)
	env.Cluster.Ctl.Tick()
	fallback := b.LoadHomepage()
	if !fallback.FullyPainted() {
		t.Fatalf("polling fallback failed: %+v", fallback.Widgets)
	}
	if fallback.NetworkFetches == 0 {
		t.Fatal("polling fallback issued no requests")
	}
}

func TestEventStreamResumesFromLastID(t *testing.T) {
	env, server, url := sseStack(t)
	b := New(env.UserNames[0], url, nil, env.Clock)

	widgets := []WidgetRequest{{Name: "system_status", Path: "/api/system_status", TTL: 60 * time.Second}}
	st, err := b.OpenEventStream(widgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(func() bool { return st.Stats().Events >= 1 }, "initial snapshot")
	first := st.Stats().LastID
	st.Close()
	if b.lastEventID != first {
		t.Fatalf("browser lastEventID = %d, want %d", b.lastEventID, first)
	}

	// Reconnecting resumes from the remembered version, before the source
	// comes due: the unchanged snapshot is not replayed. The widget then
	// changes, and that change is the first event the resumed stream
	// delivers.
	events := make(chan push.Event, 8)
	st2, err := b.OpenEventStream(widgets, func(ev push.Event) { events <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
		User: env.UserNames[0], Account: "grp01", Partition: "cpu", QOS: "normal",
		TimeLimit: time.Hour, ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024},
	}); err != nil {
		t.Fatal(err)
	}
	env.Clock.Advance(2 * time.Minute) // past system_status's TTL and jitter
	env.Cluster.Ctl.Tick()
	if n := server.TickPush(); n == 0 {
		t.Fatal("TickPush refreshed nothing")
	}
	select {
	case ev := <-events:
		if ev.Name != "system_status" || ev.ID <= first {
			t.Fatalf("resumed stream's first event = %s #%d, want the change after #%d", ev.Name, ev.ID, first)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the change never reached the resumed stream")
	}
	if n := st2.Stats().Events; n != 1 {
		t.Fatalf("resumed stream delivered %d events, want 1 (no replay)", n)
	}
}

// TestEventStreamKeepsQuietWidgetsFresh: while a live stream subscribes to
// a widget, a page load paints the cached copy however old it is, since the
// hub would have sent any change; once the stream ends, the client TTL
// applies again.
func TestEventStreamKeepsQuietWidgetsFresh(t *testing.T) {
	env, _, url := sseStack(t)
	b := New(env.UserNames[0], url, nil, env.Clock)
	widgets := []WidgetRequest{{Name: "system_status", Path: "/api/system_status", TTL: 60 * time.Second}}
	events := make(chan push.Event, 8)
	st, err := b.OpenEventStream(widgets, func(ev push.Event) { events <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() // a failed check must not leave the stream holding the listener open
	select {
	case <-events: // the subscribe-time replay
	case <-time.After(5 * time.Second):
		t.Fatal("no initial snapshot")
	}

	env.Clock.Advance(10 * time.Minute) // a quiet stretch: no refresh, no event
	if load := b.LoadPage(widgets); load.NetworkFetches != 0 || load.Widgets[0].Source != clientcache.SourceFresh {
		t.Fatalf("streamed widget 10 min after its last event: source=%s network=%d, want cache-fresh/0",
			load.Widgets[0].Source, load.NetworkFetches)
	}
	st.Close()
	if load := b.LoadPage(widgets); load.NetworkFetches != 1 {
		t.Fatalf("after the stream closed: network=%d, want 1 (the 60 s client TTL applies)", load.NetworkFetches)
	}
}
