package newsfeed

import (
	"net/http/httptest"
	"testing"
	"time"

	"ooddash/internal/clock"
)

func newTestClock() *clock.Sim {
	return clock.NewSim(time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC))
}

func TestPublishAndRecent(t *testing.T) {
	clock := newTestClock()
	f := New(clock)
	id1 := f.Publish(Article{Title: "first", Category: CategoryNews})
	clock.Advance(time.Hour)
	id2 := f.Publish(Article{Title: "second", Category: CategoryOutage})
	if id1 == id2 {
		t.Fatal("IDs not unique")
	}
	recent := f.Recent(0)
	if len(recent) != 2 {
		t.Fatalf("recent = %d", len(recent))
	}
	if recent[0].Title != "second" {
		t.Fatalf("newest first violated: %+v", recent)
	}
	if got := f.Recent(1); len(got) != 1 || got[0].Title != "second" {
		t.Fatalf("Recent(1) = %+v", got)
	}
}

func TestUrgencyColors(t *testing.T) {
	tests := []struct {
		cat  Category
		want string
	}{
		{CategoryOutage, "red"},
		{CategoryMaintenance, "yellow"},
		{CategoryNews, "gray"},
		{CategoryFeature, "gray"},
	}
	for _, tc := range tests {
		if got := tc.cat.UrgencyColor(); got != tc.want {
			t.Errorf("%s color = %s, want %s", tc.cat, got, tc.want)
		}
	}
}

func TestActiveStyling(t *testing.T) {
	now := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	current := Article{PostedAt: now.Add(-time.Hour), EndsAt: now.Add(time.Hour)}
	if !current.Active(now) {
		t.Error("ongoing event should be active")
	}
	future := Article{PostedAt: now, StartsAt: now.Add(24 * time.Hour), EndsAt: now.Add(25 * time.Hour)}
	if !future.Active(now) {
		t.Error("future event should be active")
	}
	past := Article{PostedAt: now.Add(-48 * time.Hour), EndsAt: now.Add(-24 * time.Hour)}
	if past.Active(now) {
		t.Error("finished event should be inactive")
	}
	freshNews := Article{PostedAt: now.Add(-2 * 24 * time.Hour)}
	if !freshNews.Active(now) {
		t.Error("recent undated news should be active")
	}
	oldNews := Article{PostedAt: now.Add(-30 * 24 * time.Hour)}
	if oldNews.Active(now) {
		t.Error("month-old undated news should be inactive")
	}
}

func TestHTTPAPIRoundTrip(t *testing.T) {
	clock := newTestClock()
	f := New(clock)
	f.Publish(Article{Title: "Planned maintenance", Category: CategoryMaintenance,
		StartsAt: clock.Now().Add(24 * time.Hour), EndsAt: clock.Now().Add(32 * time.Hour)})
	clock.Advance(time.Minute)
	f.Publish(Article{Title: "Scratch filesystem outage", Category: CategoryOutage})

	srv := httptest.NewServer(f)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	articles, err := c.Fetch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(articles) != 2 {
		t.Fatalf("articles = %d", len(articles))
	}
	if articles[0].Title != "Scratch filesystem outage" || articles[0].Category != CategoryOutage {
		t.Fatalf("articles[0] = %+v", articles[0])
	}
	if articles[1].EndsAt.IsZero() {
		t.Fatal("maintenance window lost its end time over the wire")
	}
	if f.Requests() != 1 {
		t.Fatalf("requests = %d, want 1", f.Requests())
	}
}

func TestHTTPAPILimit(t *testing.T) {
	f := New(newTestClock())
	for i := 0; i < 5; i++ {
		f.Publish(Article{Title: "article", Category: CategoryNews})
	}
	srv := httptest.NewServer(f)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	articles, err := c.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(articles) != 3 {
		t.Fatalf("articles = %d, want 3", len(articles))
	}
}

func TestHTTPAPIBadLimit(t *testing.T) {
	f := New(newTestClock())
	srv := httptest.NewServer(f)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?limit=potato")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
