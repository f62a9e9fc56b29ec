package trace

import (
	"sort"
	"sync"
	"time"

	"ooddash/internal/clock"
)

// Tail-retention classes, in eviction-priority order: when the store is full
// the lowest (class, seq) entry goes first, so a baseline trace is always
// evicted before a slow one, and a slow one before an error/degraded one.
const (
	classBaseline = iota
	classSlow
	classError
)

// retainedAs maps a class to its Summary.RetainedAs label.
func retainedAs(class int) string {
	switch class {
	case classError:
		return "error"
	case classSlow:
		return "slow"
	}
	return "baseline"
}

// Decisions counts every tail-retention outcome since startup.
type Decisions struct {
	KeptError    int64 `json:"kept_error"`    // retained: error or degraded
	KeptSlow     int64 `json:"kept_slow"`     // retained: over threshold or slowest-N
	KeptBaseline int64 `json:"kept_baseline"` // retained: probabilistic baseline
	Dropped      int64 `json:"dropped"`       // not retained (timings extracted, trace freed)
	Rejected     int64 `json:"rejected"`      // retainable but lower-priority than everything stored
	Evicted      int64 `json:"evicted"`       // previously retained, displaced by a newer trace
}

// Filter selects traces from List.
type Filter struct {
	// Widget restricts to one widget ("" = all).
	Widget string
	// MinDuration drops traces faster than this.
	MinDuration time.Duration
	// DegradedOnly keeps only degraded or error traces.
	DegradedOnly bool
	// Limit bounds the result (0 = 50, capped at the store size).
	Limit int
}

// storeEntry is one retained trace.
type storeEntry struct {
	tr    *Trace
	sum   Summary
	class int
	seq   uint64
	bytes int
}

// slowTracker holds one widget's slowest-N durations within the current
// window, so "slower than the fastest of the current top N" is an O(N)
// decision with tiny N.
type slowTracker struct {
	windowStart time.Time
	durs        []time.Duration
}

// storeConfig parametrizes a Store (built by the Tracer).
type storeConfig struct {
	clock  clock.Clock
	max    int
	slow   time.Duration
	slowN  int
	window time.Duration
}

// Store is the bounded, tail-sampled trace store. All methods are safe for
// concurrent use; the retained count never exceeds the configured maximum.
type Store struct {
	cfg storeConfig

	mu      sync.Mutex
	seq     uint64
	entries map[string]*storeEntry
	bytes   int64
	slowByW map[string]*slowTracker
	dec     Decisions
}

func newStore(cfg storeConfig) *Store {
	return &Store{
		cfg:     cfg,
		entries: make(map[string]*storeEntry, cfg.max),
		slowByW: make(map[string]*slowTracker),
	}
}

// add runs the tail-retention decision for one finished trace and reports
// whether it was kept. errClass marks error/degraded traces (always kept if
// room can be made); baselineKeep is the tracer's probabilistic coin flip.
func (s *Store) add(tr *Trace, sum *Summary, errClass, baselineKeep bool, dur time.Duration, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()

	class := -1
	switch {
	case errClass:
		class = classError
	case s.slowQualifies(tr.widget, dur, now):
		class = classSlow
	case baselineKeep:
		class = classBaseline
	}
	if class < 0 {
		s.dec.Dropped++
		return false
	}

	// Duplicate ID (an upstream proxy replaying its own trace ID): the newer
	// trace replaces the older without counting against the bound.
	if old, ok := s.entries[tr.id]; ok {
		s.bytes -= int64(old.bytes)
		delete(s.entries, tr.id)
	}
	if len(s.entries) >= s.cfg.max {
		// The victim is the lowest-priority stored trace; if even it outranks
		// the incoming one, the incoming trace is rejected instead (a newer
		// same-class trace displaces an older one).
		victim := s.victim()
		if victim == nil || victim.class > class {
			s.dec.Rejected++
			return false
		}
		s.bytes -= int64(victim.bytes)
		delete(s.entries, victim.tr.id)
		s.dec.Evicted++
	}
	s.seq++
	sum.RetainedAs = retainedAs(class)
	sum.Bytes = tr.sizeEstimate()
	e := &storeEntry{tr: tr, sum: *sum, class: class, seq: s.seq, bytes: sum.Bytes}
	s.entries[tr.id] = e
	s.bytes += int64(e.bytes)
	switch class {
	case classError:
		s.dec.KeptError++
	case classSlow:
		s.dec.KeptSlow++
	default:
		s.dec.KeptBaseline++
	}
	return true
}

// victim returns the lowest-priority stored entry: smallest class, oldest
// seq within it. Caller holds s.mu.
func (s *Store) victim() *storeEntry {
	var v *storeEntry
	for _, e := range s.entries {
		if v == nil || e.class < v.class || (e.class == v.class && e.seq < v.seq) {
			v = e
		}
	}
	return v
}

// slowQualifies decides the slow class: at/over the hard threshold, or in
// the widget's slowest-N for the current window. Zero-duration traces never
// qualify — on the simulated clock a request that advanced no time is by
// definition fast. Caller holds s.mu.
func (s *Store) slowQualifies(widget string, dur time.Duration, now time.Time) bool {
	if dur <= 0 {
		return false
	}
	if s.cfg.slow > 0 && dur >= s.cfg.slow {
		return true
	}
	if s.cfg.slowN <= 0 {
		return false
	}
	tk := s.slowByW[widget]
	if tk == nil || now.Sub(tk.windowStart) >= s.cfg.window {
		tk = &slowTracker{windowStart: now}
		s.slowByW[widget] = tk
	}
	if len(tk.durs) < s.cfg.slowN {
		tk.durs = append(tk.durs, dur)
		return true
	}
	min := 0
	for i := 1; i < len(tk.durs); i++ {
		if tk.durs[i] < tk.durs[min] {
			min = i
		}
	}
	if dur > tk.durs[min] {
		tk.durs[min] = dur
		return true
	}
	return false
}

// Len returns the number of retained traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Max returns the store's retained-trace bound.
func (s *Store) Max() int { return s.cfg.max }

// RetainedBytes estimates the memory held by retained traces — the quantity
// the /metrics gauge exports to prove the store is bytes-bounded.
func (s *Store) RetainedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Snapshot returns the retention-decision counters.
func (s *Store) Snapshot() Decisions {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dec
}

// List returns retained trace summaries matching f, newest first.
func (s *Store) List(f Filter) []Summary {
	limit := f.Limit
	if limit <= 0 {
		limit = 50
	}
	s.mu.Lock()
	matched := make([]*storeEntry, 0, len(s.entries))
	for _, e := range s.entries {
		if f.Widget != "" && e.sum.Widget != f.Widget {
			continue
		}
		if e.sum.duration < f.MinDuration {
			continue
		}
		if f.DegradedOnly && !e.sum.Degraded && !e.sum.Error {
			continue
		}
		matched = append(matched, e)
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].seq > matched[j].seq })
	if len(matched) > limit {
		matched = matched[:limit]
	}
	out := make([]Summary, len(matched))
	for i, e := range matched {
		out[i] = e.sum
	}
	s.mu.Unlock()
	return out
}

// Get returns the retained trace with the given ID.
func (s *Store) Get(id string) (*Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, false
	}
	return e.tr, true
}

// Summary returns the stored summary for the given ID.
func (s *Store) Summary(id string) (Summary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return Summary{}, false
	}
	return e.sum, true
}

// sizeEstimate approximates the trace's retained footprint: a fixed
// per-trace and per-span overhead plus every string it holds. It is an
// accounting estimate (the gauge's unit), not an exact heap measurement.
func (t *Trace) sizeEstimate() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 96 + len(t.id) + len(t.widget) + len(t.origin)
	var walk func(*Span)
	walk = func(s *Span) {
		n += 112 + len(s.name)
		for _, a := range s.attrs {
			n += 32 + len(a.Key) + len(a.Value)
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return n
}

// SpanJSON is one exported span: offsets are relative to the trace start so
// a waterfall renders without timestamp math.
type SpanJSON struct {
	Name       string            `json:"name"`
	OffsetUS   int64             `json:"offset_us"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*SpanJSON       `json:"children,omitempty"`
}

// TraceJSON is the exported span tree for GET /api/admin/traces/{id}.
type TraceJSON struct {
	ID           string    `json:"id"`
	Widget       string    `json:"widget"`
	Origin       string    `json:"origin"`
	Start        time.Time `json:"start"`
	DurationUS   int64     `json:"duration_us"`
	Spans        int       `json:"spans"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	Root         *SpanJSON `json:"root"`
}

// Export renders the trace's span tree as JSON-ready structs. Unended spans
// (an abandoned timed-out attempt still running when the trace finished)
// clamp to the root's end time.
func (t *Trace) Export() TraceJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceJSON{
		ID:           t.id,
		Widget:       t.widget,
		Origin:       t.origin,
		Spans:        t.spans,
		DroppedSpans: t.dropped,
	}
	if t.root == nil {
		return out
	}
	start := t.root.start
	rootEnd := t.root.end
	if rootEnd.IsZero() {
		rootEnd = start
	}
	out.Start = start
	out.DurationUS = rootEnd.Sub(start).Microseconds()
	var export func(*Span) *SpanJSON
	export = func(s *Span) *SpanJSON {
		end := s.end
		if end.IsZero() || end.After(rootEnd) {
			end = rootEnd
		}
		j := &SpanJSON{
			Name:       s.name,
			OffsetUS:   s.start.Sub(start).Microseconds(),
			DurationUS: end.Sub(s.start).Microseconds(),
		}
		if len(s.attrs) > 0 {
			j.Attrs = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				j.Attrs[a.Key] = a.Value
			}
		}
		for _, c := range s.children {
			j.Children = append(j.Children, export(c))
		}
		return j
	}
	out.Root = export(t.root)
	return out
}

// Depth returns the maximum nesting depth of the exported tree (root = 1).
func (t TraceJSON) Depth() int {
	var depth func(*SpanJSON) int
	depth = func(s *SpanJSON) int {
		if s == nil {
			return 0
		}
		max := 0
		for _, c := range s.Children {
			if d := depth(c); d > max {
				max = d
			}
		}
		return 1 + max
	}
	return depth(t.Root)
}
