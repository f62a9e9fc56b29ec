package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kindPage      spanKind = iota // browser.LoadPage
	kindRequest                   // transport -> dashboard handler
	kindCommand                   // slurmcli.Runner.Run
	kindREST                      // slurmrest handler
	kindTick                      // Server.TickPush (single server)
	kindFleetTick                 // Fleet.Tick (replicas' TickPush inside)
)

// span is one recorded call. parent indexes the enclosing span in the same
// lane (-1 for a root); name carries the Slurm command for kindCommand.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
	name       string
}

// lane holds the spans of one client goroutine. Pages, requests and ticks
// nest on that goroutine, so its open-span stack gives every span its
// parent. Upstream calls may run on a helper goroutine (the resilience
// layer runs each attempt in its own) while the lane's goroutine waits, so
// the lane is locked.
type lane struct {
	mu    sync.Mutex
	spans []span
	stack []int32
}

// laneKey carries the requesting lane in a request context.
type laneKey struct{}

// recorder keeps spans in memory per lane; they are aggregated when the
// traced phase ends. With on false every hook is one atomic load.
type recorder struct {
	on    atomic.Bool
	base  time.Time
	lanes []*lane

	// orphans are upstream spans no lane could be found for.
	orphanMu sync.Mutex
	orphans  []span

	// restCalls and restNotModified count the REST handler's answers.
	restCalls, restNotModified atomic.Int64
}

func newRecorder(lanes int) *recorder {
	r := &recorder{base: time.Now()}
	for i := 0; i < lanes; i++ {
		r.lanes = append(r.lanes, &lane{})
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span on l and returns its index. Only l's goroutine opens
// and closes spans on it.
func (r *recorder) begin(l *lane, kind spanKind) int32 {
	start := r.now()
	l.mu.Lock()
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{kind: kind, parent: parent, start: start})
	l.stack = append(l.stack, idx)
	l.mu.Unlock()
	return idx
}

// end closes span idx on l, which must be the innermost open span.
func (r *recorder) end(l *lane, idx int32) {
	end := r.now()
	l.mu.Lock()
	l.spans[idx].end = end
	l.stack = l.stack[:len(l.stack)-1]
	l.mu.Unlock()
}

// laneFor finds the lane an upstream call works for: the one the request
// context names, else the only lane with an open span (background ticks
// run while every client goroutine waits).
func (r *recorder) laneFor(ctx context.Context) *lane {
	if l, ok := ctx.Value(laneKey{}).(*lane); ok {
		return l
	}
	var found *lane
	for _, l := range r.lanes {
		l.mu.Lock()
		busy := len(l.stack) > 0
		l.mu.Unlock()
		if busy {
			if found != nil {
				return nil
			}
			found = l
		}
	}
	return found
}

// leaf records fn as an upstream span under the innermost open span of the
// lane it works for.
func (r *recorder) leaf(ctx context.Context, kind spanKind, name string, fn func()) {
	if !r.on.Load() {
		fn()
		return
	}
	l := r.laneFor(ctx)
	start := r.now()
	fn()
	sp := span{kind: kind, parent: -1, start: start, end: r.now(), name: name}
	if l == nil {
		r.orphanMu.Lock()
		r.orphans = append(r.orphans, sp)
		r.orphanMu.Unlock()
		return
	}
	l.mu.Lock()
	if n := len(l.stack); n > 0 {
		sp.parent = l.stack[n-1]
	}
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

// reset drops every recorded span.
func (r *recorder) reset() {
	for _, l := range r.lanes {
		l.mu.Lock()
		l.spans, l.stack = l.spans[:0], l.stack[:0]
		l.mu.Unlock()
	}
	r.orphanMu.Lock()
	r.orphans = r.orphans[:0]
	r.orphanMu.Unlock()
	r.restCalls.Store(0)
	r.restNotModified.Store(0)
}

// layerTimes is the traced phase reduced to per-layer totals.
type layerTimes struct {
	pages, requests, commands, restCalls               int64
	pageSelf, requestSelf                              int64 // ns
	commandTotal, restTotal, tickTotal, fleetTickTotal int64 // ns
	commandsByName                                     map[string]int64
	orphans                                            int
}

// aggregate computes self times (span minus the union of its children) and
// per-kind totals over every lane.
func (r *recorder) aggregate() layerTimes {
	lt := layerTimes{commandsByName: make(map[string]int64)}
	for _, l := range r.lanes {
		children := make(map[int32][]interval)
		for _, sp := range l.spans {
			if sp.parent >= 0 {
				children[sp.parent] = append(children[sp.parent], interval{sp.start, sp.end})
			}
		}
		for i, sp := range l.spans {
			iv := interval{sp.start, sp.end}
			switch sp.kind {
			case kindPage:
				lt.pages++
				lt.pageSelf += selfTime(iv, children[int32(i)])
			case kindRequest:
				lt.requests++
				lt.requestSelf += selfTime(iv, children[int32(i)])
			}
			lt.addTotal(sp)
		}
	}
	r.orphanMu.Lock()
	for _, sp := range r.orphans {
		lt.addTotal(sp)
	}
	lt.orphans = len(r.orphans)
	r.orphanMu.Unlock()
	return lt
}

func (lt *layerTimes) addTotal(sp span) {
	d := sp.end - sp.start
	switch sp.kind {
	case kindCommand:
		lt.commands++
		lt.commandTotal += d
		lt.commandsByName[sp.name]++
	case kindREST:
		lt.restCalls++
		lt.restTotal += d
	case kindTick:
		lt.tickTotal += d
	case kindFleetTick:
		lt.fleetTickTotal += d
	}
}
