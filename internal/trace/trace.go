// Package trace is the dashboard's span-tracing subsystem: per-request flame
// traces from the HTTP edge through the cache, resilience, and command layers
// into the simulated Slurm daemons, kept only when interesting.
//
// The observability layer (internal/obs) proves in aggregate that the cache
// keeps slurmctld load low; it cannot explain why one request was slow. A
// trace can: it is a tree of named spans, each recording start/end on the
// shared clock plus string attributes (cache hit vs fill, retry count,
// breaker state, command, daemon), rooted at the request's X-OODDash-Trace
// ID. Instrumented layers call StartSpan(ctx, name); when the context
// carries no active span the call is a no-op returning a nil *Span whose
// methods are all nil-receiver-safe, so the sampled-out path costs one
// context lookup and zero allocations.
//
// Sampling is two-staged. Head sampling (Tracer.SetSample) hashes the trace
// ID against a threshold and decides whether to record at all. Tail-based
// retention (Store) then decides what to keep once the outcome is known:
// error/degraded traces always, the slowest-N per widget per window, a small
// probabilistic baseline — everything else is dropped after its span timings
// have been extracted into histograms, so steady-state memory is bounded
// regardless of traffic.
//
// The package depends only on the stdlib and internal/clock, and is safe for
// concurrent use.
package trace

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ooddash/internal/clock"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// maxSpansPerTrace bounds one trace's span tree so a pathological request
// (a retry storm inside a fan-out) cannot grow a trace without limit; spans
// past the cap are counted as dropped instead of recorded.
const maxSpansPerTrace = 512

// Span is one timed operation within a trace. A nil *Span is a valid no-op:
// every method checks the receiver, so instrumentation sites never branch on
// whether the request is being traced.
type Span struct {
	tr       *Trace
	parent   *Span
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// SetAttr annotates the span. No-op on a nil span or after Export froze the
// trace's tree shape (attrs may still land; they are read under the lock).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetAttr(key, itoa(v))
}

// End stamps the span's end time from the trace's clock. Idempotent; no-op
// on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.clock.Now()
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.tr.mu.Unlock()
}

// Root reports whether this is the trace's root span (false for nil).
func (s *Span) Root() bool { return s != nil && s.parent == nil }

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Trace is one request's accumulated span tree plus its identity: the trace
// ID, the widget that served it, and the origin that started it ("http" for
// client requests, "push" for scheduler-driven refreshes).
type Trace struct {
	id     string
	widget string
	origin string
	clock  clock.Clock

	mu      sync.Mutex
	root    *Span
	spans   int
	dropped int
}

// ID returns the trace ID.
func (t *Trace) ID() string { return t.id }

// Widget returns the widget the trace is attributed to.
func (t *Trace) Widget() string { return t.widget }

// Origin returns what started the trace ("http" or "push").
func (t *Trace) Origin() string { return t.origin }

// startChild records a new span under parent, or nil when the per-trace span
// cap is hit (counted as dropped).
func (t *Trace) startChild(parent *Span, name string) *Span {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans >= maxSpansPerTrace {
		t.dropped++
		return nil
	}
	sp := &Span{tr: t, parent: parent, name: name, start: now}
	parent.children = append(parent.children, sp)
	t.spans++
	return sp
}

// spanKey carries the active span through context.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the active span, or nil when the request is not
// being traced. Instrumentation uses the nil result as its fast path.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan opens a child span under the context's active span. When the
// context carries none (head sampling said no, or the layer is reached
// outside a request) it returns the context unchanged and a nil span —
// every subsequent SetAttr/End is a no-op and nothing allocates.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.startChild(parent, name)
	if sp == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, sp), sp
}

// Summary is the flat, JSON-ready digest of one completed trace — what the
// trace list endpoint returns and the slow-request log line carries.
type Summary struct {
	ID         string    `json:"id"`
	Widget     string    `json:"widget"`
	Origin     string    `json:"origin"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	Error      bool      `json:"error"`
	Degraded   bool      `json:"degraded"`
	// RetainedAs is why the tail sampler kept the trace ("error", "slow",
	// "baseline"); empty in summaries of traces that were not retained.
	RetainedAs string `json:"retained_as,omitempty"`
	// Bytes is the store's size estimate for the retained trace.
	Bytes int `json:"bytes,omitempty"`

	duration time.Duration
}

// Duration returns the root span's duration on the shared clock.
func (s Summary) Duration() time.Duration { return s.duration }

// Config tunes a Tracer. Zero values take the documented defaults.
type Config struct {
	// Clock drives span timestamps and the retention window; nil means wall
	// clock. Share the stack's simulated clock in tests.
	Clock clock.Clock
	// Sample is the head-sampling probability: the fraction of trace IDs
	// recorded at all. 0 means the default (1.0, record everything and let
	// tail retention bound memory); negative disables tracing entirely.
	Sample float64
	// Slow is the duration (shared clock) at or above which a trace is
	// always retained and reported to OnSlow. 0 means 500ms; negative
	// disables the slow class.
	Slow time.Duration
	// StoreMax bounds retained traces. 0 means 256.
	StoreMax int
	// SlowKeepN is how many slowest traces per widget per Window the tail
	// sampler retains even below the Slow threshold. 0 means 5; negative
	// disables the per-widget tracker.
	SlowKeepN int
	// Window is the slowest-N tracking window on the shared clock. 0 means
	// one minute.
	Window time.Duration
	// Baseline is the probability a fast, healthy trace is retained anyway,
	// so the store always holds a reference population. 0 means 0.05;
	// negative disables the baseline class.
	Baseline float64
	// OnSpan receives every finished trace's span timings — layer (the span
	// name up to the first '.') and duration in seconds — including for
	// traces the tail sampler then drops. This is the histogram extraction
	// hook: aggregate visibility survives even when the trace does not.
	OnSpan func(layer string, seconds float64)
	// OnSlow receives the summary of every trace at or above Slow,
	// retained or not (the threshold-gated slow-request log line).
	OnSlow func(Summary)
}

// thresholdAlways marks "sample everything" so p=1 cannot lose the one hash
// value equal to MaxUint64.
const thresholdAlways = math.MaxUint64

// Tracer mints root spans under head sampling and finishes traces into the
// tail-sampled store.
type Tracer struct {
	clock    clock.Clock
	slow     time.Duration
	baseline uint64 // tail baseline-keep threshold over hashAlt
	onSpan   func(layer string, seconds float64)
	onSlow   func(Summary)
	store    *Store

	enabled   atomic.Bool
	threshold atomic.Uint64
}

// New builds a Tracer and its Store from cfg.
func New(cfg Config) *Tracer {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	if cfg.Slow == 0 {
		cfg.Slow = 500 * time.Millisecond
	} else if cfg.Slow < 0 {
		cfg.Slow = 0
	}
	if cfg.StoreMax <= 0 {
		cfg.StoreMax = 256
	}
	if cfg.SlowKeepN == 0 {
		cfg.SlowKeepN = 5
	} else if cfg.SlowKeepN < 0 {
		cfg.SlowKeepN = 0
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.Baseline == 0 {
		cfg.Baseline = 0.05
	} else if cfg.Baseline < 0 {
		cfg.Baseline = 0
	}
	t := &Tracer{
		clock:    clk,
		slow:     cfg.Slow,
		baseline: probToThreshold(cfg.Baseline),
		onSpan:   cfg.OnSpan,
		onSlow:   cfg.OnSlow,
		store: newStore(storeConfig{
			clock:  clk,
			max:    cfg.StoreMax,
			slow:   cfg.Slow,
			slowN:  cfg.SlowKeepN,
			window: cfg.Window,
		}),
	}
	sample := cfg.Sample
	if sample == 0 {
		sample = 1
	}
	t.SetSample(sample)
	return t
}

// SetSample adjusts head sampling at runtime: p >= 1 records every request,
// 0 <= p < 1 records that fraction (by trace-ID hash, so one request's
// decision is stable across layers), negative disables tracing entirely —
// StartRoot returns without even hashing.
func (t *Tracer) SetSample(p float64) {
	if p < 0 {
		t.enabled.Store(false)
		t.threshold.Store(0)
		return
	}
	t.threshold.Store(probToThreshold(p))
	t.enabled.Store(true)
}

// probToThreshold maps a probability to a uint64 hash threshold.
func probToThreshold(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return thresholdAlways
	}
	return uint64(p * float64(math.MaxUint64))
}

// sampled applies the head-sampling decision to a trace ID.
func (t *Tracer) sampled(id string) bool {
	th := t.threshold.Load()
	if th == thresholdAlways {
		return true
	}
	return th > 0 && hashID(id) < th
}

// Store returns the tracer's tail-sampled trace store.
func (t *Tracer) Store() *Store { return t.store }

// SlowThreshold returns the configured slow-trace threshold (0 = disabled).
func (t *Tracer) SlowThreshold() time.Duration { return t.slow }

// StartRoot opens the root span of a new trace for the given ID, subject to
// head sampling. If the context already carries an active span (a push
// refresh's loopback request re-entering the HTTP edge), the new span joins
// that trace as a child instead of founding an orphaned root — Finish on a
// non-root span is then a no-op and the real root's finisher retains the
// whole tree. Returns (ctx, nil) when tracing is disabled or the ID is
// sampled out.
func (t *Tracer) StartRoot(ctx context.Context, id, name, widget, origin string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	if parent := SpanFromContext(ctx); parent != nil {
		sp := parent.tr.startChild(parent, name)
		if sp == nil {
			return ctx, nil
		}
		sp.SetAttr("widget", widget)
		return ContextWithSpan(ctx, sp), sp
	}
	if !t.sampled(id) {
		return ctx, nil
	}
	now := t.clock.Now()
	tr := &Trace{id: id, widget: widget, origin: origin, clock: t.clock}
	sp := &Span{tr: tr, name: name, start: now}
	tr.root = sp
	tr.spans = 1
	return ContextWithSpan(ctx, sp), sp
}

// Finish completes a trace: it ends the root span, extracts every span's
// timing into the OnSpan hook (layer = span name up to the first '.'), runs
// tail retention, and fires OnSlow past the threshold. It reports the
// trace's summary and whether the store retained it. Calling Finish on a
// nil or non-root span is a no-op — child spans (the loopback edge inside a
// push trace) just End.
func (t *Tracer) Finish(sp *Span, isErr, degraded bool) (Summary, bool) {
	if t == nil || sp == nil || !sp.Root() {
		return Summary{}, false
	}
	tr := sp.tr
	now := t.clock.Now()

	type timing struct {
		layer   string
		seconds float64
	}
	var timings []timing
	tr.mu.Lock()
	if sp.end.IsZero() {
		sp.end = now
	}
	rootEnd := sp.end
	if t.onSpan != nil {
		timings = make([]timing, 0, tr.spans)
		var walk func(*Span)
		walk = func(s *Span) {
			end := s.end
			if end.IsZero() || end.After(rootEnd) {
				// An unended span (an abandoned timed-out attempt) clamps to
				// the root's end so its timing cannot exceed the request's.
				end = rootEnd
			}
			timings = append(timings, timing{layerOf(s.name), end.Sub(s.start).Seconds()})
			for _, c := range s.children {
				walk(c)
			}
		}
		walk(sp)
	}
	spans := tr.spans
	dur := rootEnd.Sub(sp.start)
	tr.mu.Unlock()

	for _, tm := range timings {
		t.onSpan(tm.layer, tm.seconds)
	}
	sum := Summary{
		ID:         tr.id,
		Widget:     tr.widget,
		Origin:     tr.origin,
		Start:      sp.start,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Spans:      spans,
		Error:      isErr,
		Degraded:   degraded,
		duration:   dur,
	}
	baselineKeep := t.baseline > 0 && hashAlt(tr.id) < t.baseline
	kept := t.store.add(tr, &sum, isErr || degraded, baselineKeep, dur, now)
	if t.onSlow != nil && t.slow > 0 && dur >= t.slow {
		t.onSlow(sum)
	}
	return sum, kept
}

// layerOf maps a span name to its histogram layer: the name up to the first
// '.' ("cache.fill" → "cache", "slurmdbd.handle" → "slurmdbd").
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// hashID is FNV-1a 64 over the trace ID — the head-sampling coin flip.
func hashID(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return h
}

// hashAlt is an independent hash over the same ID (FNV-1a from a different
// basis) for the tail baseline decision, so baseline retention is not
// correlated with head sampling.
func hashAlt(id string) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return h
}

// itoa is strconv.Itoa for small non-negative ints without importing strconv
// into the hot attr path (attempt counts, retry counts).
func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string([]byte{byte('0' + v)})
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
