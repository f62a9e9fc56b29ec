package core

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/push"
	"ooddash/internal/slurm"
)

// sseStream is one live SSE connection decoding events into a channel.
type sseStream struct {
	resp   *http.Response
	events chan push.Event
	err    error
	done   chan struct{}
}

// openSSE connects user to /api/events with the given query string and
// starts decoding. Events arrive on .events; .done closes at stream end.
func (e *env) openSSE(user, query string) *sseStream {
	e.t.Helper()
	req, err := http.NewRequest("GET", e.web.URL+"/api/events?"+query, nil)
	if err != nil {
		e.t.Fatal(err)
	}
	req.Header.Set(auth.UserHeader, user)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := e.web.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		e.t.Fatalf("SSE connect: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		e.t.Fatalf("SSE Content-Type = %q", ct)
	}
	st := &sseStream{resp: resp, events: make(chan push.Event, 64), done: make(chan struct{})}
	go func() {
		defer close(st.done)
		dec := push.NewDecoder(resp.Body)
		for {
			ev, err := dec.Next()
			if err != nil {
				if err != io.EOF {
					st.err = err
				}
				return
			}
			st.events <- ev
		}
	}()
	e.t.Cleanup(func() { resp.Body.Close(); <-st.done })
	return st
}

// next waits for one event with a timeout.
func (st *sseStream) next(t *testing.T) push.Event {
	t.Helper()
	select {
	case ev := <-st.events:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for SSE event")
		return push.Event{}
	}
}

func TestEventStreamDeliversSnapshots(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()

	st := e.openSSE("alice", "widgets=system_status,recent_jobs")

	// Initial replay: the subscribe-time refresh published one current
	// snapshot per widget.
	got := map[string]push.Event{}
	for i := 0; i < 2; i++ {
		ev := st.next(t)
		got[ev.Name] = ev
	}
	if _, ok := got["system_status"]; !ok {
		t.Fatalf("initial replay missing system_status: %v", got)
	}
	ev, ok := got["recent_jobs"]
	if !ok {
		t.Fatalf("initial replay missing recent_jobs: %v", got)
	}
	if ev.ID == 0 {
		t.Fatal("snapshot event carried no version id")
	}
	var rj struct {
		Jobs []any `json:"jobs"`
	}
	if err := json.Unmarshal(ev.Data, &rj); err != nil {
		t.Fatalf("recent_jobs payload: %v\n%s", err, ev.Data)
	}
	if len(rj.Jobs) != 0 {
		t.Fatalf("expected empty job list, got %d", len(rj.Jobs))
	}

	// New work appears; after a TTL cycle the background refresh pushes the
	// changed payload without the client issuing any request.
	e.submit(slurm.SubmitRequest{User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024}})
	e.clock.Advance(80 * time.Second) // > TTL (60s for system_status) + 25% jitter
	e.cluster.Ctl.Tick()
	if n := e.server.TickPush(); n == 0 {
		t.Fatal("TickPush refreshed nothing after a TTL cycle")
	}
	deadline := time.After(5 * time.Second)
	for {
		var ev push.Event
		select {
		case ev = <-st.events:
		case <-deadline:
			t.Fatal("no recent_jobs update pushed after job submit")
		}
		if ev.Name != "recent_jobs" {
			continue
		}
		if err := json.Unmarshal(ev.Data, &rj); err != nil {
			t.Fatal(err)
		}
		if len(rj.Jobs) == 1 {
			return
		}
	}
}

func TestEventStreamResumeReplaysOnlyNewer(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()

	// First connection establishes the sources and versions.
	st := e.openSSE("alice", "widgets=system_status,announcements")
	var last int64
	for i := 0; i < 2; i++ {
		if ev := st.next(t); ev.ID > last {
			last = ev.ID
		}
	}
	st.resp.Body.Close()
	<-st.done

	// Reconnecting with Last-Event-ID at the head replays nothing; with 0 it
	// replays both current snapshots.
	req, _ := http.NewRequest("GET", e.web.URL+"/api/events?widgets=system_status,announcements", nil)
	req.Header.Set(auth.UserHeader, "alice")
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", strconv.FormatInt(last, 10))
	resp, err := e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Nothing should arrive: close after a short grace period and confirm
	// the decoder saw no events before EOF.
	timer := time.AfterFunc(300*time.Millisecond, func() { resp.Body.Close() })
	defer timer.Stop()
	dec := push.NewDecoder(resp.Body)
	if ev, err := dec.Next(); err == nil {
		t.Fatalf("resume at head replayed event %+v", ev)
	}

	st2 := e.openSSE("alice", "widgets=system_status,announcements&last_event_id=0")
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		seen[st2.next(t).Name] = true
	}
	if !seen["system_status"] || !seen["announcements"] {
		t.Fatalf("full replay = %v", seen)
	}
}

// TestSSEAccountSetSourceOutlivesItsRegistrant: alice and dave stream
// the accounts widget on one account-set key, alice's stream first, so it
// registers the key's source. alice then moves to another account set. The
// source refreshes as the set its key names, not as alice, so dave's
// stream receives the key's next event, lab-a's new usage, and no refresh
// fails.
func TestSSEAccountSetSourceOutlivesItsRegistrant(t *testing.T) {
	e := newEnvWith(t, func(c *Config) { c.Push.Jitter = -1 }, nil)
	defer e.server.Close()
	e.users.AddUser(auth.User{Name: "dave", Accounts: []string{"lab-a"}})
	first := e.openSSE("alice", "widgets=accounts")
	first.next(t)
	second := e.openSSE("dave", "widgets=accounts")
	initial := second.next(t)

	e.users.AddUser(auth.User{Name: "alice", Accounts: []string{"lab-b"}})
	e.submit(slurm.SubmitRequest{User: "bob", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 1024}, Profile: slurm.UsageProfile{ActualDuration: time.Hour}})
	e.clock.Advance(e.server.Config().TTLs.Accounts + time.Second)
	if e.server.TickPush() == 0 {
		t.Fatal("TickPush refreshed nothing")
	}
	ev := second.next(t)
	if ev.ID <= initial.ID {
		t.Fatalf("dave's next event has version %d, not after %d", ev.ID, initial.ID)
	}
	status, want := e.get("dave", "/api/accounts")
	if status != http.StatusOK || !bytes.Equal(bytes.TrimSpace(ev.Data), bytes.TrimSpace(want)) {
		t.Fatalf("dave's stream got %s; /api/accounts serves dave %d %s", ev.Data, status, want)
	}
	if got := e.server.PushScheduler().Stats().Errors; got != 0 {
		t.Fatalf("%d refresh errors across alice's account change, want 0", got)
	}
}

func TestEventStreamRejectsUnknownWidget(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()
	e.wantStatus("alice", "/api/events?widgets=nope", http.StatusBadRequest)
	// job_perf exists as a widget but is not push-enabled.
	e.wantStatus("alice", "/api/events?widgets=job_perf", http.StatusBadRequest)
	// Unauthenticated SSE is rejected like any other route.
	e.wantStatus("", "/api/events?widgets=system_status", http.StatusUnauthorized)
}

func TestEventsDispatchKeepsLegacyPoll(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()
	// No Accept header, no widgets param: the delta-poll feed still serves.
	status, body := e.get("alice", "/api/events?tail=1")
	if status != http.StatusOK {
		t.Fatalf("legacy poll status %d: %s", status, body)
	}
	var pollResp struct {
		NextSeq *int64 `json:"next_seq"`
	}
	if err := json.Unmarshal(body, &pollResp); err != nil || pollResp.NextSeq == nil {
		t.Fatalf("legacy poll payload lost: %v\n%s", err, body)
	}
}

func TestServerCloseEndsStreamsWithoutLeaking(t *testing.T) {
	e := newEnv(t)

	before := runtime.NumGoroutine()
	streams := make([]*sseStream, 0, 3)
	users := []string{"alice", "bob", "carol"}
	for _, u := range users {
		st := e.openSSE(u, "widgets=system_status,recent_jobs")
		// Drain the initial replay so only the shutdown event remains.
		for i := 0; i < 2; i++ {
			st.next(t)
		}
		streams = append(streams, st)
	}
	if n := e.server.PushHub().SubscriberCount(); n != 3 {
		t.Fatalf("subscribers = %d, want 3", n)
	}

	e.server.Close()
	e.server.Close() // idempotent

	for _, st := range streams {
		ev := st.next(t)
		if ev.Name != "shutdown" {
			t.Fatalf("final event = %q, want shutdown", ev.Name)
		}
		select {
		case <-st.done:
		case <-time.After(5 * time.Second):
			t.Fatal("stream did not end after shutdown event")
		}
		if st.err != nil {
			t.Fatalf("stream ended with error: %v", st.err)
		}
	}
	if n := e.server.PushHub().SubscriberCount(); n != 0 {
		t.Fatalf("subscribers after Close = %d", n)
	}
	// A closed server still serves plain HTTP.
	e.wantStatus("alice", "/api/system_status", http.StatusOK)

	// All handler and decoder goroutines must wind down (idle HTTP conns
	// get a small grace allowance).
	e.web.Client().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestPushMetricsExposed(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()
	st := e.openSSE("alice", "widgets=system_status")
	st.next(t)

	status, body := e.get("staff", "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	for _, want := range []string{
		"ooddash_push_connected_clients 1",
		"ooddash_push_events_published_total",
		"ooddash_push_refresh_seconds",
		`ooddash_push_widget_version{source="system_status"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
