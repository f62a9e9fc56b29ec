package push

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/etag"
)

func testClock() *clock.Sim {
	return clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
}

func TestHubVersionsAndHashSuppression(t *testing.T) {
	clk := testClock()
	h := NewHub(clk)
	s1, fresh := h.Publish("w", "w", etag.New([]byte(`{"a":1}`)), false)
	if !fresh || s1.Version != 1 {
		t.Fatalf("first publish: fresh=%v version=%d", fresh, s1.Version)
	}
	// Identical payload: suppressed, no new version.
	s2, fresh := h.Publish("w", "w", etag.New([]byte(`{"a":1}`)), false)
	if fresh || s2.Version != 1 {
		t.Fatalf("unchanged publish minted a version: fresh=%v version=%d", fresh, s2.Version)
	}
	// Same payload flipping to degraded must mint a new version.
	s3, fresh := h.Publish("w", "w", etag.New([]byte(`{"a":1}`)), true)
	if !fresh || s3.Version != 2 {
		t.Fatalf("degraded flip suppressed: fresh=%v version=%d", fresh, s3.Version)
	}
	if st := h.Stats(); st.Published != 2 || st.Suppressed != 1 {
		t.Fatalf("stats = %+v, want published=2 suppressed=1", st)
	}

	// What a fleet peer serving from its hub relies on: an unchanged
	// publish moves the confirm time, a republish keeps its origin's time,
	// an older one never replaces the held snapshot, and Drop forgets it.
	clk.Advance(time.Minute)
	if s, _ := h.Publish("w", "w", etag.New([]byte(`{"a":1}`)), true); s.Version != 2 || !s.Timestamp.Equal(clk.Now()) {
		t.Fatalf("unchanged publish: version %d confirmed at %v, want v2 at %v", s.Version, s.Timestamp, clk.Now())
	}
	later := clk.Now().Add(time.Minute)
	if s, fresh := h.Republish(Snapshot{Widget: "w", Key: "w", Body: etag.New([]byte("2")), Timestamp: later}); !fresh ||
		!s.Timestamp.Equal(later) {
		t.Fatalf("republish: fresh=%v at %v, want a new version at %v", fresh, s.Timestamp, later)
	}
	if s, fresh := h.Republish(Snapshot{Widget: "w", Key: "w", Body: etag.New([]byte("3")), Timestamp: clk.Now()}); fresh ||
		string(s.Body.Bytes) != "2" {
		t.Fatalf("older republish replaced the held snapshot: fresh=%v body %q", fresh, s.Body.Bytes)
	}
	h.Drop("w")
	if _, ok := h.Latest("w"); ok {
		t.Fatal("Drop left the key held")
	}
}

func TestHubSubscribeFilterAndReplay(t *testing.T) {
	h := NewHub(testClock())
	h.Publish("a", "a", etag.New([]byte("1")), false) // v1
	h.Publish("b", "b", etag.New([]byte("2")), false) // v2

	sub := h.Subscribe([]string{"a"})
	defer sub.Close()
	h.Publish("a", "a", etag.New([]byte("3")), false) // v3
	h.Publish("b", "b", etag.New([]byte("4")), false) // v4 — not subscribed

	snap, ok := sub.Pop()
	if !ok || snap.Key != "a" || snap.Version != 3 {
		t.Fatalf("Pop = %+v ok=%v, want a v3", snap, ok)
	}
	if _, ok := sub.Pop(); ok {
		t.Fatal("unexpected second pending snapshot")
	}

	// Resume replay: a client that saw v1 gets only newer snapshots of its
	// widgets, ordered by version.
	replay := h.Since(1, []string{"a", "b"})
	if len(replay) != 2 || replay[0].Version != 3 || replay[1].Version != 4 {
		t.Fatalf("Since(1) = %+v", replay)
	}
	if replay := h.Since(4, []string{"a", "b"}); len(replay) != 0 {
		t.Fatalf("Since(head) = %+v, want empty", replay)
	}
}

// TestHubSlowSubscriberCoalesces is the backpressure contract: a subscriber
// that never drains must coalesce to the newest snapshot per widget,
// increment its dropped counter, and never block the publisher or other
// subscribers. Run under -race.
func TestHubSlowSubscriberCoalesces(t *testing.T) {
	h := NewHub(testClock())
	slow := h.Subscribe([]string{"w"})
	fast := h.Subscribe([]string{"w"})
	defer slow.Close()
	defer fast.Close()

	const rounds = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			h.Publish("w", "w", etag.New([]byte(fmt.Sprintf(`{"i":%d}`, i))), false)
			// The fast subscriber drains every round.
			if snap, ok := fast.Pop(); !ok || !bytes.Contains(snap.Body.Bytes, []byte(fmt.Sprint(i))) {
				t.Errorf("round %d: fast subscriber missed its snapshot", i)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}

	// The slow subscriber holds exactly the newest snapshot.
	snap, ok := slow.Pop()
	if !ok {
		t.Fatal("slow subscriber has nothing pending")
	}
	if want := fmt.Sprintf(`{"i":%d}`, rounds-1); string(snap.Body.Bytes) != want {
		t.Fatalf("slow subscriber got %s, want newest %s", snap.Body.Bytes, want)
	}
	if _, ok := slow.Pop(); ok {
		t.Fatal("slow subscriber buffered more than the newest snapshot")
	}
	st := slow.Stats()
	if st.Dropped != rounds-1 {
		t.Fatalf("slow dropped = %d, want %d", st.Dropped, rounds-1)
	}
	if st.Slow == 0 {
		t.Fatal("slow counter not incremented")
	}
	if fst := fast.Stats(); fst.Dropped != 0 {
		t.Fatalf("fast subscriber dropped %d snapshots", fst.Dropped)
	}
}

func TestHubConcurrentPublishSubscribe(t *testing.T) {
	h := NewHub(testClock())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", g)
			for i := 0; i < 50; i++ {
				h.Publish(key, key, etag.New([]byte(fmt.Sprintf("%d-%d", g, i))), false)
			}
		}(g)
	}
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sub := h.Subscribe([]string{fmt.Sprintf("w%d", c%4)})
			for i := 0; i < 20; i++ {
				sub.Pop()
			}
			sub.Close()
		}(c)
	}
	wg.Wait()
	if h.SubscriberCount() != 0 {
		t.Fatalf("subscribers leaked: %d", h.SubscriberCount())
	}
}

func TestHubClose(t *testing.T) {
	h := NewHub(testClock())
	sub := h.Subscribe([]string{"w"})
	h.Close()
	select {
	case <-sub.Done():
	default:
		t.Fatal("subscription not closed by hub Close")
	}
	if _, fresh := h.Publish("w", "w", etag.New([]byte("x")), false); fresh {
		t.Fatal("publish after Close minted a version")
	}
	// Subscribing after close yields an already-done subscription.
	s2 := h.Subscribe([]string{"w"})
	select {
	case <-s2.Done():
	default:
		t.Fatal("post-close subscription not done")
	}
}

func TestSSERoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.WriteComment("hb 1"); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteEvent("system_status", 7, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteEvent("multi", 8, []byte("line1\nline2")); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteEvent("shutdown", 0, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder(strings.NewReader(buf.String()))
	ev, err := dec.Next()
	if err != nil || ev.Name != "system_status" || ev.ID != 7 || string(ev.Data) != `{"a":1}` {
		t.Fatalf("event 1 = %+v err=%v", ev, err)
	}
	ev, err = dec.Next()
	if err != nil || ev.Name != "multi" || ev.ID != 8 || string(ev.Data) != "line1\nline2" {
		t.Fatalf("event 2 = %+v err=%v", ev, err)
	}
	ev, err = dec.Next()
	if err != nil || ev.Name != "shutdown" {
		t.Fatalf("event 3 = %+v err=%v", ev, err)
	}
	// ID is sticky across frames that omit it, per the SSE spec.
	if ev.ID != 8 || dec.LastID() != 8 {
		t.Fatalf("sticky ID = %d / %d, want 8", ev.ID, dec.LastID())
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("trailing Next err = %v, want EOF", err)
	}
}
