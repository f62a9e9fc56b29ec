package push

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ooddash/internal/etag"
)

// The fleet tier taps every publish with SubscribeAll; the tap must be
// invisible to the idle accounting (SubscriberCount, SubscribersFor, Stats)
// or pause-when-idle would never pause and per-key fan-out counts would lie.
func TestHubSubscribeAllIsPassive(t *testing.T) {
	h := NewHub(testClock())
	tap := h.SubscribeAll()
	defer tap.Close()

	if n := h.SubscriberCount(); n != 0 {
		t.Fatalf("SubscriberCount with only a tap = %d, want 0", n)
	}
	h.Publish("a", "a", etag.New([]byte("1")), false)
	if n := h.SubscribersFor("a"); n != 0 {
		t.Fatalf("SubscribersFor with only a tap = %d, want 0", n)
	}
	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("Stats.Subscribers with only a tap = %d, want 0", st.Subscribers)
	}

	// The tap still receives every key without subscribing to any.
	h.Publish("b", "b:u1", etag.New([]byte("2")), false)
	got := map[string]bool{}
	for {
		snap, ok := tap.Pop()
		if !ok {
			break
		}
		got[snap.Key] = true
	}
	if !got["a"] || !got["b:u1"] {
		t.Fatalf("tap missed publishes, got %v", got)
	}

	// Real subscribers count as before, and closing the tap doesn't
	// disturb them.
	sub := h.Subscribe([]string{"a"})
	defer sub.Close()
	if n := h.SubscriberCount(); n != 1 {
		t.Fatalf("SubscriberCount with tap+sub = %d, want 1", n)
	}
	tap.Close()
	if n := h.SubscriberCount(); n != 1 {
		t.Fatalf("SubscriberCount after tap close = %d, want 1", n)
	}
	if n := h.SubscribersFor("a"); n != 1 {
		t.Fatalf("SubscribersFor after tap close = %d, want 1", n)
	}
}

// Unregister/Keys/SourceRefreshes are the scheduler surface the fleet's
// ownership handover and duplicate-poll drill are built on.
func TestSchedulerUnregisterKeysRefreshCounts(t *testing.T) {
	clock := testClock()
	hub := NewHub(clock)
	defer hub.Close()
	sched := NewScheduler(SchedulerOptions{Clock: clock, Hub: hub, Jitter: -1})
	defer sched.Close()

	fetch := func(payload string) FetchFunc {
		return func(ctx context.Context) (etag.Body, bool, error) {
			return etag.New([]byte(payload)), false, nil
		}
	}
	for _, key := range []string{"b", "a"} {
		if _, err := sched.Register(Source{Widget: key, Key: key, TTL: time.Minute, Fetch: fetch(key)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := sched.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Keys = %v, want [a b]", got)
	}

	// Duplicate registration is a no-op (handover re-registration safety).
	added, err := sched.Register(Source{Widget: "a", Key: "a", TTL: time.Minute, Fetch: fetch("a")})
	if err != nil || added {
		t.Fatalf("duplicate Register = (%v, %v), want (false, nil)", added, err)
	}

	if _, err := sched.Refresh(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(61 * time.Second)
	sched.Tick() // both due
	counts := sched.SourceRefreshes()
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Fatalf("SourceRefreshes = %v, want a:2 b:1", counts)
	}

	if !sched.Unregister("a") {
		t.Fatal("Unregister(a) = false, want true")
	}
	if sched.Unregister("a") {
		t.Fatal("second Unregister(a) = true, want false")
	}
	if got := sched.Keys(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Keys after Unregister = %v, want [b]", got)
	}
	if _, err := sched.Refresh(context.Background(), "a"); err == nil {
		t.Fatal("Refresh of unregistered source succeeded")
	}
	if _, ok := sched.SourceRefreshes()["a"]; ok {
		t.Fatal("SourceRefreshes still reports unregistered key")
	}
}
