// Package resilience provides the fault-tolerance policies the dashboard
// backend puts between its cache and every external data source: per-attempt
// timeouts, bounded retries with exponential backoff and jitter, and a
// per-source circuit breaker (closed → open → half-open).
//
// The paper's caching design exists to protect a fragile upstream
// (slurmctld) from dashboard traffic; this package is the other half of that
// argument — when the upstream fails anyway, the dashboard must stop hammering
// it (breaker), absorb transient blips (retry), and give the cache layer a
// typed signal (OpenError, UpstreamError) so widgets can degrade to
// last-known-good data instead of erroring.
//
// All timing except the per-attempt Timeout reads from an injected
// clock.Clock (backoff sleeps on it too), so breaker transitions and backoff
// are fully driveable by a simulated clock in tests.
package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/trace"
)

// State is a circuit breaker state.
type State int

// Breaker states, in escalation order.
const (
	// Closed passes calls through, counting consecutive failures.
	Closed State = iota
	// HalfOpen lets a single probe through; its outcome closes or reopens.
	HalfOpen
	// Open short-circuits every call until OpenFor has elapsed.
	Open
)

// String returns the conventional state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	}
	return "unknown"
}

// Policy configures one source's fault handling. The zero value of any field
// falls back to DefaultPolicy.
type Policy struct {
	// Timeout bounds each attempt. It is enforced with context.WithTimeout,
	// so it is the one wall-clock quantity in the package (a hung upstream
	// hangs in real time, simulated or not). <0 disables the deadline.
	Timeout time.Duration
	// MaxAttempts is the total number of tries per Do call (1 = no retry).
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per attempt.
	Backoff time.Duration
	// MaxBackoff caps the doubled delay.
	MaxBackoff time.Duration
	// Jitter spreads each backoff by ±Jitter fraction (0.5 → 50%–150%),
	// drawn from the breaker's seeded RNG so runs are reproducible.
	Jitter float64
	// FailureThreshold is how many consecutive failed Do calls open the
	// breaker.
	FailureThreshold int
	// OpenFor is how long an open breaker short-circuits before allowing a
	// half-open probe.
	OpenFor time.Duration
	// Classify reports whether an error is an availability failure. Only
	// availability failures are retried and counted toward opening the
	// breaker; other errors (unknown job, bad arguments) return immediately
	// and count as successful contact with the upstream. Nil classifies
	// every error as an availability failure.
	Classify func(error) bool
}

// DefaultPolicy returns the policy the dashboard uses for every source
// unless configured otherwise: one retry after 50 ms (±50% jitter), 2 s
// per-attempt deadline, breaker opening after 3 consecutive failures for
// 30 s.
func DefaultPolicy() Policy {
	return Policy{
		Timeout:          2 * time.Second,
		MaxAttempts:      2,
		Backoff:          50 * time.Millisecond,
		MaxBackoff:       time.Second,
		Jitter:           0.5,
		FailureThreshold: 3,
		OpenFor:          30 * time.Second,
	}
}

// withDefaults fills zero-valued fields from DefaultPolicy. Timeout < 0
// means "no deadline" and is preserved.
func (p Policy) withDefaults() Policy {
	def := DefaultPolicy()
	if p.Timeout == 0 {
		p.Timeout = def.Timeout
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = def.Backoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = def.FailureThreshold
	}
	if p.OpenFor <= 0 {
		p.OpenFor = def.OpenFor
	}
	return p
}

// OpenError is returned when a call is short-circuited by an open (or
// probe-busy half-open) breaker without touching the upstream.
type OpenError struct {
	Source string
	// RetryAfter is how long until the breaker will allow a probe.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OpenError) Error() string {
	return fmt.Sprintf("resilience: %s circuit open (retry in %v)", e.Source, e.RetryAfter)
}

// BreakerOpen marks the error for layers (the cache's degraded-mode stats)
// that count breaker short-circuits without importing this package.
func (e *OpenError) BreakerOpen() bool { return true }

// UpstreamError wraps an availability failure that exhausted the retry
// policy: the upstream was contacted and could not serve.
type UpstreamError struct {
	Source string
	// RetryAfter suggests when a client should try again (the breaker's
	// remaining open window when the failure tripped it).
	RetryAfter time.Duration
	Err        error
}

// Error implements error.
func (e *UpstreamError) Error() string {
	return fmt.Sprintf("resilience: %s unavailable: %v", e.Source, e.Err)
}

// Unwrap exposes the final attempt's error.
func (e *UpstreamError) Unwrap() error { return e.Err }

// StateChange describes one breaker transition, delivered to the OnChange
// hook (metrics, logs).
type StateChange struct {
	Source string
	From   State
	To     State
	At     time.Time
}

// Outcome classifies how one Do call against a source ended, for the
// observability layer's per-source attribution.
type Outcome string

// Do outcomes.
const (
	// OutcomeOK: first attempt succeeded.
	OutcomeOK Outcome = "ok"
	// OutcomeRetried: succeeded, but only after at least one retry.
	OutcomeRetried Outcome = "retried"
	// OutcomeSemantic: the upstream answered with a non-availability error
	// (unknown job, bad arguments); counts as healthy contact.
	OutcomeSemantic Outcome = "semantic_error"
	// OutcomeError: availability failure that exhausted the retry policy.
	OutcomeError Outcome = "error"
	// OutcomeShortCircuit: rejected by an open breaker, upstream untouched.
	OutcomeShortCircuit Outcome = "short_circuit"
	// OutcomeCanceled: the caller went away mid-call; says nothing about the
	// upstream.
	OutcomeCanceled Outcome = "canceled"
)

// OpResult describes one completed Do call, delivered to the OnResult hook.
// Duration is wall-clock (latency is a real quantity even under a simulated
// policy clock); the caller's context rides along so request-scoped trace
// IDs survive into metrics and logs.
type OpResult struct {
	Source   string
	Duration time.Duration
	// Attempts is the number of upstream calls made (0 for short-circuits).
	Attempts int
	Outcome  Outcome
	// Err is the error returned to the caller, nil on success.
	Err error
}

// Stats is a snapshot of one breaker's counters.
type Stats struct {
	Source              string
	State               State
	ConsecutiveFailures int
	Attempts            int64 // individual upstream calls (includes retries)
	Retries             int64 // attempts beyond the first within one Do
	Successes           int64 // Do calls that reached the upstream and succeeded
	Failures            int64 // Do calls that exhausted the retry policy
	ShortCircuits       int64 // Do calls rejected without touching the upstream
	Opens               int64 // transitions into Open
}

// Breaker executes calls against one data source under a Policy. All methods
// are safe for concurrent use.
type Breaker struct {
	source   string
	policy   Policy
	clock    clock.Clock
	onChange func(StateChange)
	onResult func(context.Context, OpResult)

	mu          sync.Mutex
	rng         *rand.Rand
	state       State
	consecutive int
	openedAt    time.Time
	probing     bool
	stats       Stats
}

// NewBreaker builds a standalone breaker; most callers use a Set instead.
// clk nil means wall clock; retry backoff sleeps on clk; seed fixes the
// jitter RNG.
func NewBreaker(source string, p Policy, clk clock.Clock, seed int64, onChange func(StateChange)) *Breaker {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Breaker{
		source:   source,
		policy:   p.withDefaults(),
		clock:    clk,
		onChange: onChange,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Source returns the breaker's source name.
func (b *Breaker) Source() string { return b.source }

// SetResultHook installs fn as the per-call outcome observer. It is called
// once after every Do with the call's attribution (outcome, attempts,
// wall-clock duration) and the caller's context. Install hooks during
// setup, before the breaker serves traffic.
func (b *Breaker) SetResultHook(fn func(context.Context, OpResult)) {
	b.mu.Lock()
	b.onResult = fn
	b.mu.Unlock()
}

// observe delivers one OpResult to the hook, outside breaker locks.
func (b *Breaker) observe(ctx context.Context, start time.Time, attempts int, outcome Outcome, err error) {
	b.mu.Lock()
	fn := b.onResult
	b.mu.Unlock()
	if fn == nil {
		return
	}
	fn(ctx, OpResult{
		Source:   b.source,
		Duration: time.Since(start),
		Attempts: attempts,
		Outcome:  outcome,
		Err:      err,
	})
}

// State returns the current breaker state. An expired open window still
// reports Open until the next call transitions it.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RetryAfter reports how long until an open breaker admits a probe (zero
// when not open).
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		return 0
	}
	remaining := b.openedAt.Add(b.policy.OpenFor).Sub(b.clock.Now())
	if remaining < 0 {
		remaining = 0
	}
	return remaining
}

// Snapshot returns a copy of the breaker's counters.
func (b *Breaker) Snapshot() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.Source = b.source
	st.State = b.state
	st.ConsecutiveFailures = b.consecutive
	return st
}

// Do executes op under the policy: admission through the breaker, a deadline
// per attempt, retries with backoff for availability failures. Availability
// failures that exhaust the policy return a *UpstreamError; short-circuits
// return a *OpenError; classified non-availability errors return as-is.
func (b *Breaker) Do(ctx context.Context, op func(context.Context) (any, error)) (any, error) {
	start := time.Now()
	traced := trace.SpanFromContext(ctx) != nil
	if err := b.admit(); err != nil {
		if traced {
			_, sp := trace.StartSpan(ctx, "resilience.short_circuit")
			sp.SetAttr("source", b.source)
			sp.SetAttr("error", err.Error())
			sp.End()
		}
		b.observe(ctx, start, 0, OutcomeShortCircuit, err)
		return nil, err
	}
	p := b.policy
	var lastErr error
	attempts := 0
	for attempt := 1; ; attempt++ {
		b.mu.Lock()
		b.stats.Attempts++
		b.mu.Unlock()
		attempts = attempt
		// Each attempt gets its own span; deeper layers (slurmcli, the
		// daemons) nest under the attempt's context, so a trace attributes
		// work to the retry that did it.
		actx := ctx
		var asp *trace.Span
		if traced {
			actx, asp = trace.StartSpan(ctx, "resilience.attempt")
			asp.SetAttr("source", b.source)
			asp.SetAttrInt("attempt", attempt)
			asp.SetAttr("state", b.State().String())
		}
		v, err := b.runOnce(actx, op)
		if err == nil {
			asp.End()
			b.recordSuccess()
			outcome := OutcomeOK
			if attempt > 1 {
				outcome = OutcomeRetried
			}
			b.observe(ctx, start, attempts, outcome, nil)
			return v, nil
		}
		if asp != nil {
			asp.SetAttr("error", err.Error())
		}
		if p.Classify != nil && !p.Classify(err) {
			// A semantic error from a healthy upstream: the daemon answered,
			// so the contact counts as a success for the breaker.
			if asp != nil {
				asp.SetAttr("class", "semantic")
			}
			asp.End()
			b.recordSuccess()
			b.observe(ctx, start, attempts, OutcomeSemantic, err)
			return nil, err
		}
		asp.End()
		lastErr = err
		if attempt >= p.MaxAttempts || ctx.Err() != nil {
			break
		}
		b.mu.Lock()
		b.stats.Retries++
		b.mu.Unlock()
		if traced {
			_, bsp := trace.StartSpan(ctx, "resilience.backoff")
			bsp.SetAttrInt("after_attempt", attempt)
			b.clock.Sleep(b.backoff(attempt))
			bsp.End()
		} else {
			b.clock.Sleep(b.backoff(attempt))
		}
	}
	if ctx.Err() != nil && ctx.Err() == context.Canceled {
		// The client went away mid-call; that says nothing about the
		// upstream, so release the probe slot without moving the breaker.
		b.releaseProbe()
		b.observe(ctx, start, attempts, OutcomeCanceled, lastErr)
		return nil, lastErr
	}
	b.recordFailure()
	err := &UpstreamError{Source: b.source, RetryAfter: b.RetryAfter(), Err: lastErr}
	b.observe(ctx, start, attempts, OutcomeError, err)
	return nil, err
}

// admit checks the breaker before an upstream call, transitioning
// Open → HalfOpen when the open window has elapsed.
func (b *Breaker) admit() error {
	b.mu.Lock()
	now := b.clock.Now()
	var change *StateChange
	switch b.state {
	case Open:
		remaining := b.openedAt.Add(b.policy.OpenFor).Sub(now)
		if remaining > 0 {
			b.stats.ShortCircuits++
			b.mu.Unlock()
			return &OpenError{Source: b.source, RetryAfter: remaining}
		}
		change = b.transition(HalfOpen, now)
		b.probing = true
	case HalfOpen:
		if b.probing {
			b.stats.ShortCircuits++
			b.mu.Unlock()
			return &OpenError{Source: b.source, RetryAfter: b.policy.OpenFor}
		}
		b.probing = true
	}
	b.mu.Unlock()
	b.notify(change)
	return nil
}

// runOnce performs one attempt under the per-attempt deadline. The op runs
// in its own goroutine so a hung upstream cannot wedge the caller; the
// goroutine drains into a buffered channel when the deadline wins.
func (b *Breaker) runOnce(ctx context.Context, op func(context.Context) (any, error)) (any, error) {
	if b.policy.Timeout < 0 {
		return op(ctx)
	}
	tctx, cancel := context.WithTimeout(ctx, b.policy.Timeout)
	defer cancel()
	type result struct {
		v   any
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := op(tctx)
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-tctx.Done():
		return nil, fmt.Errorf("resilience: %s: attempt: %w", b.source, tctx.Err())
	}
}

func (b *Breaker) recordSuccess() {
	b.mu.Lock()
	b.stats.Successes++
	b.consecutive = 0
	b.probing = false
	var change *StateChange
	if b.state != Closed {
		change = b.transition(Closed, b.clock.Now())
	}
	b.mu.Unlock()
	b.notify(change)
}

func (b *Breaker) recordFailure() {
	b.mu.Lock()
	b.stats.Failures++
	b.consecutive++
	b.probing = false
	now := b.clock.Now()
	var change *StateChange
	switch {
	case b.state == HalfOpen:
		// The probe failed: reopen for a full window.
		b.openedAt = now
		b.stats.Opens++
		change = b.transition(Open, now)
	case b.state == Closed && b.consecutive >= b.policy.FailureThreshold:
		b.openedAt = now
		b.stats.Opens++
		change = b.transition(Open, now)
	}
	b.mu.Unlock()
	b.notify(change)
}

func (b *Breaker) releaseProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// transition flips the state and returns the change to notify with after the
// lock is dropped. Caller holds b.mu.
func (b *Breaker) transition(to State, at time.Time) *StateChange {
	from := b.state
	b.state = to
	return &StateChange{Source: b.source, From: from, To: to, At: at}
}

func (b *Breaker) notify(change *StateChange) {
	if change != nil && b.onChange != nil {
		b.onChange(*change)
	}
}

// backoff computes the jittered delay before the retry following attempt.
func (b *Breaker) backoff(attempt int) time.Duration {
	p := b.policy
	d := p.Backoff << (attempt - 1)
	if d > p.MaxBackoff || d <= 0 { // <= 0 guards shift overflow
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		b.mu.Lock()
		f := 1 + p.Jitter*(2*b.rng.Float64()-1)
		b.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// Options configure a Set.
type Options struct {
	// Clock drives breaker windows and retry backoff; nil means wall clock.
	// A simulated clock keeps tests off the wall clock.
	Clock clock.Clock
	// Seed fixes every breaker's jitter RNG (offset per breaker).
	Seed int64
	// OnStateChange observes every breaker transition. It is called outside
	// breaker locks but must not invoke Do on the same breaker.
	OnStateChange func(StateChange)
	// OnResult observes the outcome of every Do call (latency histograms,
	// outcome counters). Called once per Do, outside breaker locks, with the
	// caller's context so request-scoped trace IDs stay attached.
	OnResult func(context.Context, OpResult)
}

// Set is a registry of per-source breakers sharing one clock and
// state-change observer.
type Set struct {
	opts Options

	mu       sync.Mutex
	breakers map[string]*Breaker
	order    []string
}

// NewSet returns an empty registry.
func NewSet(opts Options) *Set {
	return &Set{opts: opts, breakers: make(map[string]*Breaker)}
}

// Register creates (or replaces) the breaker for source and returns it.
func (s *Set) Register(source string, p Policy) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.breakers[source]; !ok {
		s.order = append(s.order, source)
		sort.Strings(s.order)
	}
	seed := s.opts.Seed + int64(len(s.breakers))
	b := NewBreaker(source, p, s.opts.Clock, seed, s.opts.OnStateChange)
	b.SetResultHook(s.opts.OnResult)
	s.breakers[source] = b
	return b
}

// Breaker returns the breaker for source, or nil when unregistered.
func (s *Set) Breaker(source string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.breakers[source]
}

// Do executes op through the source's breaker, registering one with
// DefaultPolicy on first use.
func (s *Set) Do(source string, ctx context.Context, op func(context.Context) (any, error)) (any, error) {
	s.mu.Lock()
	b := s.breakers[source]
	s.mu.Unlock()
	if b == nil {
		b = s.Register(source, DefaultPolicy())
	}
	return b.Do(ctx, op)
}

// Snapshot returns every breaker's counters, sorted by source name.
func (s *Set) Snapshot() []Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stats, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.breakers[name].Snapshot())
	}
	return out
}
