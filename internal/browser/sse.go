package browser

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ooddash/internal/auth"
	"ooddash/internal/push"
)

// EventStream is the browser's SSE connection to /api/events: every named
// event it receives is written into the client cache under the widget's API
// path, so page loads paint instantly from cache without polling, through
// quiet cycles too — the hub sends every change, so while the stream lives
// LoadPage trusts the cached copy whatever its age. When the stream dies the
// browser simply falls back to the polling policy LoadPage already
// implements — the cache it kept hot is still there.
type EventStream struct {
	browser *Browser
	paths   map[string]string // event name -> client-cache key (API path)
	resp    *http.Response
	onEvent func(push.Event)

	mu       sync.Mutex
	events   int64
	degraded int64
	lastID   int64
	closed   bool
	err      error

	done chan struct{}
}

// OpenEventStream subscribes to the given widgets' live updates, resuming
// from the browser's last seen event version when reconnecting. onEvent
// (optional) observes every applied event after the cache write — load
// generators use it to timestamp delivery. The stream reads on its own
// goroutine until the server shuts down, the connection drops, or Close.
func (b *Browser) OpenEventStream(widgets []WidgetRequest, onEvent func(push.Event)) (*EventStream, error) {
	names := make([]string, 0, len(widgets))
	paths := make(map[string]string, len(widgets))
	for _, w := range widgets {
		names = append(names, w.Name)
		paths[w.Name] = w.Path
	}
	req, err := http.NewRequest("GET", b.BaseURL+"/api/events?widgets="+strings.Join(names, ","), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(auth.UserHeader, b.User)
	req.Header.Set("Accept", "text/event-stream")
	if b.lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(b.lastEventID, 10))
	}
	// The browser's polling client may carry a request timeout, which would
	// kill a long-lived stream mid-flight; streams share its transport only.
	client := &http.Client{Transport: b.Client.Transport}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("browser: event stream returned %d: %.120s", resp.StatusCode, body)
	}
	st := &EventStream{
		browser: b,
		paths:   paths,
		resp:    resp,
		onEvent: onEvent,
		lastID:  b.lastEventID,
		done:    make(chan struct{}),
	}
	b.trackStream(paths, 1)
	go st.loop()
	return st, nil
}

func (st *EventStream) loop() {
	defer close(st.done)
	defer st.browser.trackStream(st.paths, -1) // before done closes
	dec := push.NewDecoder(st.resp.Body)
	for {
		ev, err := dec.Next()
		if err != nil {
			st.mu.Lock()
			if err != io.EOF && !st.closed {
				st.err = err
			}
			st.mu.Unlock()
			return
		}
		if ev.Name == "shutdown" {
			return
		}
		key, ok := st.paths[ev.Name]
		if !ok {
			continue
		}
		// The event payload is exactly what the polling route would have
		// served; storing it keeps LoadPage's first paint instant and fresh.
		st.browser.store.Put(key, ev.Data)
		st.mu.Lock()
		st.events++
		if bytes.Contains(ev.Data, []byte(`"degraded":true`)) {
			st.degraded++
		}
		if ev.ID > st.lastID {
			st.lastID = ev.ID
			st.browser.lastEventID = ev.ID
		}
		st.mu.Unlock()
		if st.onEvent != nil {
			st.onEvent(ev)
		}
	}
}

// StreamStats reports what the stream has applied so far.
type StreamStats struct {
	Events   int64 // events applied to the client cache
	Degraded int64 // of those, payloads self-marked degraded
	LastID   int64 // newest applied snapshot version
}

// Stats returns the stream's counters.
func (st *EventStream) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StreamStats{Events: st.events, Degraded: st.degraded, LastID: st.lastID}
}

// Alive reports whether the stream is still being read.
func (st *EventStream) Alive() bool {
	select {
	case <-st.done:
		return false
	default:
		return true
	}
}

// Done is closed when the stream ends for any reason.
func (st *EventStream) Done() <-chan struct{} { return st.done }

// Err returns the stream's terminal error, if it ended abnormally (nil for
// Close, server shutdown, or clean EOF).
func (st *EventStream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Close tears the connection down and waits for the read loop to exit.
func (st *EventStream) Close() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	st.resp.Body.Close()
	<-st.done
}
