// Package browser simulates dashboard users' browsers for the experiments:
// each Browser owns an IndexedDB-style client cache (internal/clientcache)
// and loads pages by fetching every widget's API route with the frontend's
// cache policy — instant first paint from cache when possible, background
// refresh when stale. Load results report where each widget's first paint
// came from and how long the network portion took, which is the measurement
// behind the paper's "users almost always instantly see the full component"
// claim (§2.4).
package browser

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/clientcache"
	"ooddash/internal/clock"
)

// WidgetRequest names one widget fetch within a page load: the API path and
// the client-side TTL the frontend uses for it.
type WidgetRequest struct {
	Name string
	Path string
	TTL  time.Duration
}

// HomepageWidgets returns the five homepage widget fetches with the
// client-side TTLs from §2.4 (matching core.DefaultTTLs).
func HomepageWidgets() []WidgetRequest {
	return []WidgetRequest{
		{Name: "announcements", Path: "/api/announcements", TTL: 30 * time.Minute},
		{Name: "recent_jobs", Path: "/api/recent_jobs", TTL: 30 * time.Second},
		{Name: "system_status", Path: "/api/system_status", TTL: 60 * time.Second},
		{Name: "accounts", Path: "/api/accounts", TTL: 60 * time.Second},
		{Name: "storage", Path: "/api/storage", TTL: time.Hour},
	}
}

// WidgetResult reports one widget fetch within a page load.
type WidgetResult struct {
	Name   string
	Source clientcache.FetchSource
	Bytes  int
	// NetworkTime is the wall-clock time this widget spent in its backend
	// request; zero when the first paint came from cache with no refresh.
	// Load generators aggregate it into per-widget latency percentiles.
	NetworkTime time.Duration
	// Degraded is degraded mode as this client observed it: the backend
	// answered from its stale-while-error fallback (X-OODDash-Degraded
	// header), or the request failed outright and the browser fell back to
	// its own stale cached copy. Either way the widget painted old data.
	Degraded bool
	// StaleFallback distinguishes the client-side case: the backend request
	// failed and the browser's cached copy was the fallback.
	StaleFallback bool
	Err           error
}

// PageLoad aggregates one page load.
type PageLoad struct {
	Widgets []WidgetResult
	// InstantPaints counts widgets whose first paint needed no network
	// round-trip (fresh or stale cache hit).
	InstantPaints int
	// NetworkFetches counts widgets that went to the backend.
	NetworkFetches int
	// NetworkTime is the wall-clock time spent in backend requests.
	NetworkTime time.Duration
	// DegradedPaints counts widgets that painted old data: served degraded
	// by the backend, or rescued by the browser's own stale cache after a
	// failed request. This is the client-observed degraded rate the load
	// generator gates on.
	DegradedPaints int
	// NotModified counts refreshes the server answered 304 from the
	// client's ETag — revalidations that cost headers, not a body.
	NotModified int
	// Failed counts widgets that errored with no cached fallback.
	Failed int
}

// FullyPainted reports whether every widget rendered something.
func (p *PageLoad) FullyPainted() bool { return p.Failed == 0 }

// Browser is one simulated user's browser profile.
type Browser struct {
	User    string
	BaseURL string
	Client  *http.Client
	db      *clientcache.DB
	store   *clientcache.Store
	// lastEventID remembers the newest SSE snapshot version this browser has
	// applied, so a reconnecting event stream resumes instead of replaying
	// (EventSource's Last-Event-ID behavior). Guarded by the stream's mutex
	// while a stream is open.
	lastEventID int64

	// streamed counts, per API path, the live event streams that subscribe
	// to it. The hub sends every change, so while one lives the cached copy
	// is current and LoadPage paints it without a fetch.
	streamMu sync.Mutex
	streamed map[string]int
}

// New returns a browser for user against the dashboard at baseURL. Each
// browser has its own IndexedDB (per-profile, as in real browsers), driven
// by the shared simulation clock, which makes the client-cache freshness
// decisions.
func New(user, baseURL string, client *http.Client, clk clock.Clock) *Browser {
	if client == nil {
		client = http.DefaultClient
	}
	db := clientcache.New(clk)
	return &Browser{
		User:     user,
		BaseURL:  baseURL,
		Client:   client,
		db:       db,
		store:    db.ObjectStore("api-responses"),
		streamed: make(map[string]int),
	}
}

// fetchAPI performs one authenticated backend request, revalidating with
// If-None-Match when the client cache holds a tagged copy. A 304 answer
// returns clientcache.ErrNotModified; degraded reports whether the server
// marked the response as stale-while-error fallback.
func (b *Browser) fetchAPI(path, etag string) (body []byte, newTag string, degraded bool, err error) {
	req, err := http.NewRequest("GET", b.BaseURL+path, nil)
	if err != nil {
		return nil, "", false, err
	}
	req.Header.Set(auth.UserHeader, b.User)
	req.Header.Set("Accept", "application/json")
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := b.Client.Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return nil, etag, false, clientcache.ErrNotModified
	}
	degraded = resp.Header.Get("X-OODDash-Degraded") != ""
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", degraded, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", degraded, fmt.Errorf("browser: %s returned %d: %.120s", path, resp.StatusCode, body)
	}
	return body, resp.Header.Get("ETag"), degraded, nil
}

// LoadPage loads one page: every widget goes through the client cache
// policy, exactly like widgets.js in the served frontend. A widget a live
// event stream subscribes to paints from the cache whatever its age; it
// goes to the network only when nothing is cached yet.
func (b *Browser) LoadPage(widgets []WidgetRequest) PageLoad {
	var out PageLoad
	for _, w := range widgets {
		serverDegraded := false
		var netTime time.Duration
		maxAge := w.TTL
		if b.isStreamed(w.Path) {
			maxAge = math.MaxInt64
		}
		res, err := b.store.FetchTagged(w.Path, maxAge, func(etag string) ([]byte, string, error) {
			start := time.Now()
			body, tag, deg, ferr := b.fetchAPI(w.Path, etag)
			netTime = time.Since(start)
			out.NetworkTime += netTime
			out.NetworkFetches++
			serverDegraded = deg
			return body, tag, ferr
		})
		wr := WidgetResult{Name: w.Name, NetworkTime: netTime, Err: err}
		if err == nil {
			wr.Source = res.Source
			wr.Bytes = len(res.Value)
			wr.StaleFallback = res.StaleFallback
			wr.Degraded = serverDegraded || res.StaleFallback
			// Revalidated paints are instant too: the cached copy painted
			// while the conditional request confirmed it unchanged.
			switch res.Source {
			case clientcache.SourceFresh, clientcache.SourceStale, clientcache.SourceRevalidated:
				out.InstantPaints++
			}
			if res.Source == clientcache.SourceRevalidated {
				out.NotModified++
			}
			if wr.Degraded {
				out.DegradedPaints++
			}
		} else {
			wr.Degraded = serverDegraded
			out.Failed++
		}
		out.Widgets = append(out.Widgets, wr)
	}
	return out
}

// isStreamed reports whether a live event stream subscribes to path.
func (b *Browser) isStreamed(path string) bool {
	b.streamMu.Lock()
	defer b.streamMu.Unlock()
	return b.streamed[path] > 0
}

// trackStream adds delta to the stream count of every path in paths.
func (b *Browser) trackStream(paths map[string]string, delta int) {
	b.streamMu.Lock()
	defer b.streamMu.Unlock()
	for _, path := range paths {
		b.streamed[path] += delta
	}
}

// LoadHomepage loads the five-widget homepage.
func (b *Browser) LoadHomepage() PageLoad {
	return b.LoadPage(HomepageWidgets())
}

// ClearCache wipes the browser's client cache (a "first visit" profile).
func (b *Browser) ClearCache() {
	b.store.Clear()
}

// CacheLen reports how many API responses the client cache holds.
func (b *Browser) CacheLen() int { return b.store.Len() }
