package core

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/etag"
	"ooddash/internal/push"
)

// TestWidgetTableDerivedSets pins the sets derived from the widget table:
// the push sources, which are the SSE subscription set, and the
// self-observing widgets.
func TestWidgetTableDerivedSets(t *testing.T) {
	e := newEnv(t)
	var shared, perUser, pushed, self []string
	paths := map[string]string{}
	for _, w := range e.server.widgets {
		switch w.push {
		case pushShared:
			shared = append(shared, w.Name)
		case pushPerUser:
			perUser = append(perUser, w.Name)
		}
		if w.push != pushNone {
			pushed = append(pushed, w.Name)
			paths[w.Name] = w.path()
		}
		if w.selfObserving {
			self = append(self, w.Name)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"shared push sources", shared, []string{"announcements", "system_status"}},
		{"per-user push sources", perUser, []string{"accounts", "recent_jobs", "storage"}},
		{"self-observing widgets", self, []string{"admin_slo", "admin_trace", "admin_traces", "events", "metrics"}},
	} {
		sort.Strings(c.got)
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	sort.Strings(pushed)
	wantPaths := map[string]string{
		"announcements": "/api/announcements",
		"system_status": "/api/system_status",
		"accounts":      "/api/accounts",
		"recent_jobs":   "/api/recent_jobs",
		"storage":       "/api/storage",
	}
	if !reflect.DeepEqual(paths, wantPaths) {
		t.Errorf("push source paths = %v, want %v", paths, wantPaths)
	}
	if got := e.server.widget("recent_jobs").sourceKey("alice"); got != "recent_jobs:alice" {
		t.Errorf("per-user source key = %q", got)
	}
	if got := e.server.widget("system_status").sourceKey("alice"); got != "system_status" {
		t.Errorf("shared source key = %q", got)
	}

	// The default subscription (no ?widgets=) is every push widget in name
	// order.
	req := httptest.NewRequest(http.MethodGet, "/api/events", nil)
	subs, err := e.server.parseSubscription(req)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range subs {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, pushed) {
		t.Errorf("default subscription = %v, want %v", names, pushed)
	}
	// A widget without a push source is not subscribable.
	req = httptest.NewRequest(http.MethodGet, "/api/events?widgets=my_jobs", nil)
	if _, err := e.server.parseSubscription(req); err == nil {
		t.Error("my_jobs accepted as an SSE subscription")
	}
}

var sectionTTL = regexp.MustCompile(`data-api="([^"]*)" data-ttl="([^"]*)"`)

// TestPageDataTTLFollowsConfig checks that every page section's client-cache
// TTL is the configured TTL of the widget serving its data-api route, not a
// default baked into the template.
func TestPageDataTTLFollowsConfig(t *testing.T) {
	e := newEnvWith(t, func(c *Config) {
		c.TTLs.RecentJobs = 10 * time.Second
		c.TTLs.JobHistory = 7 * time.Minute
	}, nil)
	_, home := e.get("alice", "/")
	if !strings.Contains(string(home), `data-api="/api/recent_jobs" data-ttl="10"`) {
		t.Fatalf("home page does not carry the configured recent_jobs TTL:\n%s", home)
	}
	for _, page := range []string{"/", "/myjobs", "/jobperf", "/clusterstatus", "/node/c001", "/job/1", "/insights", "/news"} {
		status, body := e.get("alice", page)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", page, status)
		}
		// html/template leaves the attribute values unescaped here.
		matches := sectionTTL.FindAllStringSubmatch(string(body), -1)
		if len(matches) == 0 {
			t.Errorf("%s: no widget sections", page)
		}
		for _, m := range matches {
			api, ttl := m[1], m[2]
			_, pattern := e.server.mux.Handler(httptest.NewRequest(http.MethodGet, api, nil))
			var served *Widget
			for i := range e.server.widgets {
				if e.server.widgets[i].Route == pattern {
					served = &e.server.widgets[i]
				}
			}
			if served == nil {
				t.Errorf("%s: section %s is served by no widget (pattern %q)", page, api, pattern)
				continue
			}
			if want := strconv.FormatInt(int64(served.TTL/time.Second), 10); ttl != want {
				t.Errorf("%s: section %s data-ttl = %s, want %s (widget %s)", page, api, ttl, want, served.Name)
			}
		}
	}
}

// TestTickPushPurgesPastGrace covers the server's purge sweep on the
// simulated clock: TickPush drops rendered entries past their TTL and data
// entries past their stale grace window, with push on or off.
func TestTickPushPurgesPastGrace(t *testing.T) {
	for _, disabled := range []bool{false, true} {
		t.Run(fmt.Sprintf("push_disabled=%t", disabled), func(t *testing.T) {
			e := newEnvWith(t, func(c *Config) { c.Push.Disabled = disabled }, nil)
			defer e.server.Close()
			e.wantStatus("alice", "/api/recent_jobs", http.StatusOK)
			e.wantStatus("alice", "/api/system_status", http.StatusOK)
			data, rendered := e.server.Cache(), e.server.RenderedCache()
			dataBefore, renderedBefore := data.Len(), rendered.Len()
			before := dataBefore + renderedBefore
			if dataBefore == 0 || renderedBefore == 0 {
				t.Fatalf("warm-up left data=%d rendered=%d entries", dataBefore, renderedBefore)
			}

			// Past the TTLs but inside the 15 min grace: rendered bytes have no
			// grace and go, data entries stay to serve degraded fallbacks.
			e.clock.Advance(10 * time.Minute)
			e.server.TickPush()
			if rendered.Len() != 0 || data.Len() != dataBefore {
				t.Fatalf("inside the grace window: data %d -> %d, rendered %d -> %d",
					dataBefore, data.Len(), renderedBefore, rendered.Len())
			}
			if got := e.server.purgedTotal.Load(); got != int64(renderedBefore) {
				t.Fatalf("purged %d entries inside the grace window, want %d", got, renderedBefore)
			}

			// Past the grace window: the next sweep drops the data entries too.
			e.clock.Advance(10 * time.Minute)
			e.server.TickPush()
			if data.Len() != 0 || rendered.Len() != 0 {
				t.Fatalf("after grace: data=%d rendered=%d entries remain", data.Len(), rendered.Len())
			}
			if got := e.server.purgedTotal.Load(); got != int64(before) {
				t.Fatalf("purged %d entries, want %d", got, before)
			}
			_, metrics := e.get("staff", "/metrics")
			if want := fmt.Sprintf("ooddash_cache_purged_total %d\n", before); !strings.Contains(string(metrics), want) {
				t.Errorf("/metrics lacks %q", want)
			}
		})
	}
}

// TestStartPushCloseWaitsForLoop checks the background loop's lifecycle:
// StartPush ticks on the wall clock, and Close returns only once the loop
// has finished its in-flight tick and exited. Run it under -race.
func TestStartPushCloseWaitsForLoop(t *testing.T) {
	e := newEnvWith(t, func(c *Config) {
		c.Push.DisableIdlePause = true // no SSE subscriber for the probe
		c.Push.Jitter = -1
	}, nil)
	s := e.server
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	if _, err := s.PushScheduler().Register(push.Source{
		Widget: "probe", Key: "probe", TTL: time.Second,
		Fetch: func(context.Context) (etag.Body, bool, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			return etag.New([]byte(`{}`)), false, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(time.Second) // the probe is due
	s.StartPush(time.Millisecond)
	select {
	case <-entered: // the loop is inside TickPush, blocked in the probe
	case <-time.After(10 * time.Second):
		t.Fatal("the StartPush loop never ticked")
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the loop's tick was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the tick finished")
	}
	// The server still serves plain requests after Close.
	req, _ := http.NewRequest(http.MethodGet, e.web.URL+"/api/system_status", nil)
	req.Header.Set(auth.UserHeader, "alice")
	resp, err := e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after Close = %d", resp.StatusCode)
	}
}
