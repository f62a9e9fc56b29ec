// Package newsfeed simulates the HPC center's news/announcements API that
// the dashboard's Announcements widget consumes (§3.1 of the paper). The
// real system calls the RCAC website's news endpoint; this package provides
// an equivalent store of categorized, dated articles plus an HTTP JSON
// endpoint, so the widget's data path (HTTP call → JSON → accordion with
// urgency colors and active/past styling) is exercised end to end.
package newsfeed

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"ooddash/internal/clock"
)

// Category classifies an article; the widget color-codes by category
// (outages red, maintenance yellow, everything else gray).
type Category string

// Article categories.
const (
	CategoryOutage      Category = "outage"
	CategoryMaintenance Category = "maintenance"
	CategoryFeature     Category = "feature"
	CategoryNews        Category = "news"
)

// UrgencyColor returns the accordion color the paper assigns each category.
func (c Category) UrgencyColor() string {
	switch c {
	case CategoryOutage:
		return "red"
	case CategoryMaintenance:
		return "yellow"
	default:
		return "gray"
	}
}

// Article is one announcement.
type Article struct {
	ID       int       `json:"id"`
	Title    string    `json:"title"`
	Body     string    `json:"body"`
	Category Category  `json:"category"`
	PostedAt time.Time `json:"posted_at"`
	// StartsAt/EndsAt bound the event the article describes (outage or
	// maintenance window). Zero for undated news.
	StartsAt time.Time `json:"starts_at,omitempty"`
	EndsAt   time.Time `json:"ends_at,omitempty"`
	Cluster  string    `json:"cluster,omitempty"` // empty means all clusters
}

// Active reports whether the article describes a current or upcoming event
// (the widget styles these prominently; past events go faint gray).
func (a *Article) Active(now time.Time) bool {
	if a.EndsAt.IsZero() {
		// Undated articles stay active for a week after posting.
		return now.Sub(a.PostedAt) <= 7*24*time.Hour
	}
	return !now.After(a.EndsAt)
}

// Feed is a thread-safe article store with an HTTP JSON API.
type Feed struct {
	mu       sync.RWMutex
	articles []Article
	nextID   int
	clock    clock.Clock
	// requests counts API hits so experiments can verify the announcements
	// cache shields this service, like the Slurm daemon counters do.
	requests int64
}

// New returns an empty feed. A nil clock uses wall time.
func New(clk clock.Clock) *Feed {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Feed{nextID: 1, clock: clk}
}

// Publish adds an article and returns its assigned ID.
func (f *Feed) Publish(a Article) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	a.ID = f.nextID
	f.nextID++
	if a.PostedAt.IsZero() {
		a.PostedAt = f.clock.Now()
	}
	f.articles = append(f.articles, a)
	return a.ID
}

// Recent returns up to n articles, newest first. n <= 0 returns all.
func (f *Feed) Recent(n int) []Article {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]Article, len(f.articles))
	copy(out, f.articles)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].PostedAt.Equal(out[j].PostedAt) {
			return out[i].PostedAt.After(out[j].PostedAt)
		}
		return out[i].ID > out[j].ID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Requests returns how many API requests the feed has served.
func (f *Feed) Requests() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.requests
}

// ServeHTTP implements the news JSON API: GET /?limit=N returns the newest
// N articles (default 20).
func (f *Feed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.requests++
	f.mu.Unlock()

	limit := 20
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("newsfeed: bad limit %q", v), http.StatusBadRequest)
			return
		}
		limit = n
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(f.Recent(limit)); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Client fetches articles from a news API endpoint. The dashboard backend
// uses it the way the paper's backend calls the RCAC news page.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
}

// Fetch returns the newest limit articles from the feed endpoint.
func (c *Client) Fetch(limit int) ([]Article, error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	url := fmt.Sprintf("%s?limit=%d", c.BaseURL, limit)
	resp, err := hc.Get(url)
	if err != nil {
		return nil, fmt.Errorf("newsfeed: fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("newsfeed: %s returned %s", url, resp.Status)
	}
	var articles []Article
	if err := json.NewDecoder(resp.Body).Decode(&articles); err != nil {
		return nil, fmt.Errorf("newsfeed: decoding response: %w", err)
	}
	return articles, nil
}
