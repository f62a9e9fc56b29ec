// Package slo is a clock-driven SLO engine (stdlib plus internal/clock):
// per-objective SLI recorders feed ring-buffered sliding windows,
// multi-window multi-burn-rate alert rules (Google SRE workbook style), a
// 28-day error-budget ledger, and a deterministic alert state machine.
// Export renders any Status source as metric families on an obs.Registry.
//
// Everything runs on an injected clock.Clock, so the same event sequence on the
// simulated clock produces byte-identical alert transitions across runs —
// chaos drills can assert "this scenario fires the availability page and
// resolves it" as a deterministic gate rather than a flaky heuristic.
//
// The recording hot path (Engine.Record) is one mutex acquisition plus a
// handful of ring-slot increments: zero allocations, so the dashboard's
// encode-once hit path keeps its alloc budget with SLO accounting enabled.
package slo

import (
	"fmt"
	"sync"
	"time"

	"ooddash/internal/clock"
)

// Kind selects how an objective classifies a request into good/bad/ignored.
type Kind string

// Objective kinds.
const (
	// KindAvailability counts every response except 503s (intentional
	// backpressure: breaker-open or admission-gate rejections are the
	// system protecting itself, not failing). Bad = other 5xx or a
	// degraded (stale-while-error) response.
	KindAvailability Kind = "availability"
	// KindLatency counts fresh 2xx responses only (degraded and rejected
	// responses are availability's problem). Bad = slower than Threshold.
	KindLatency Kind = "latency"
)

// BudgetWindow is the rolling error-budget accounting window.
const BudgetWindow = 28 * 24 * time.Hour

// fineBucket is the resolution of the burn-rate ring; rule windows are
// quantized to it. budgetBucket is the resolution of the 28d budget ring.
const (
	fineBucket   = 30 * time.Second
	budgetBucket = time.Hour
)

// Rule is one multi-window burn-rate alert: fire when the burn rate over
// BOTH the short and long windows is at least Burn, sustained for For;
// resolve after the condition has been false for KeepFor (hysteresis).
type Rule struct {
	Name     string        // "page", "ticket"
	Severity string        // paging class, usually same as Name
	Burn     float64       // burn-rate threshold, in multiples of budget rate
	Short    time.Duration // fast window (spike detection)
	Long     time.Duration // slow window (sustained-burn confirmation)
	For      time.Duration // condition must hold this long before firing
	KeepFor  time.Duration // condition must clear this long before resolving
}

// Objective is one SLO: a target ratio over the budget window plus the
// alert rules that guard it.
type Objective struct {
	Name      string
	Kind      Kind
	Target    float64       // e.g. 0.999 -> error budget 0.1%
	Threshold time.Duration // latency objectives: good means <= Threshold
	Rules     []Rule
}

// DefaultObjectives returns the stock SLO set: 99.9% availability guarded
// by the canonical SRE-workbook rule pair (14.4x over 5m AND 1h pages;
// 3x over 30m AND 6h tickets), and 99% of fresh responses under 250ms
// guarded by a ticket-only rule — latency never pages on its own.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name:   "availability",
			Kind:   KindAvailability,
			Target: 0.999,
			Rules: []Rule{
				{Name: "page", Severity: "page", Burn: 14.4,
					Short: 5 * time.Minute, Long: time.Hour,
					For: 2 * time.Minute, KeepFor: time.Minute},
				{Name: "ticket", Severity: "ticket", Burn: 3,
					Short: 30 * time.Minute, Long: 6 * time.Hour,
					For: 2 * time.Minute, KeepFor: time.Minute},
			},
		},
		{
			Name:      "latency",
			Kind:      KindLatency,
			Target:    0.99,
			Threshold: 250 * time.Millisecond,
			Rules: []Rule{
				{Name: "ticket", Severity: "ticket", Burn: 3,
					Short: 30 * time.Minute, Long: 6 * time.Hour,
					For: time.Minute, KeepFor: time.Minute},
			},
		},
	}
}

// Validate checks an objective set for the invariants the engine assumes.
func Validate(objs []Objective) error {
	if len(objs) == 0 {
		return fmt.Errorf("slo: no objectives")
	}
	seen := make(map[string]bool, len(objs))
	for _, o := range objs {
		if o.Name == "" {
			return fmt.Errorf("slo: objective with empty name")
		}
		if seen[o.Name] {
			return fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		if o.Kind != KindAvailability && o.Kind != KindLatency {
			return fmt.Errorf("slo: objective %q: unknown kind %q", o.Name, o.Kind)
		}
		if o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("slo: objective %q: target %v outside (0,1)", o.Name, o.Target)
		}
		if o.Kind == KindLatency && o.Threshold <= 0 {
			return fmt.Errorf("slo: objective %q: latency threshold must be > 0", o.Name)
		}
		if len(o.Rules) == 0 {
			return fmt.Errorf("slo: objective %q: no alert rules", o.Name)
		}
		ruleSeen := make(map[string]bool, len(o.Rules))
		for _, r := range o.Rules {
			if r.Name == "" {
				return fmt.Errorf("slo: objective %q: rule with empty name", o.Name)
			}
			if ruleSeen[r.Name] {
				return fmt.Errorf("slo: objective %q: duplicate rule %q", o.Name, r.Name)
			}
			ruleSeen[r.Name] = true
			if r.Burn <= 0 {
				return fmt.Errorf("slo: %s/%s: burn threshold must be > 0", o.Name, r.Name)
			}
			if r.Short <= 0 || r.Long <= 0 || r.Short > r.Long {
				return fmt.Errorf("slo: %s/%s: need 0 < short <= long window", o.Name, r.Name)
			}
			if r.Long > BudgetWindow {
				// The burn-rate ring holds one slot per step of the longest
				// window, and every status read walks all of them.
				return fmt.Errorf("slo: %s/%s: long window %v exceeds the %v budget window",
					o.Name, r.Name, r.Long, BudgetWindow)
			}
			if r.For < 0 || r.KeepFor < 0 {
				return fmt.Errorf("slo: %s/%s: negative for/keep_for", o.Name, r.Name)
			}
		}
	}
	return nil
}

// --- ring buffers -------------------------------------------------------------

// slot is one time bucket: good/bad event counts tagged with the absolute
// bucket epoch so stale slots are detected (and logically zero) without a
// sweeper — a gap in traffic simply leaves old epochs behind.
type slot struct {
	epoch     int64
	good, bad uint64
}

// ring is an epoch-indexed bucket ring covering a fixed trailing span.
type ring struct {
	width time.Duration
	slots []slot
}

func newRing(width, span time.Duration) ring {
	n := int(span/width) + 1 // +1: the current partial bucket
	if n < 2 {
		n = 2
	}
	return ring{width: width, slots: make([]slot, n)}
}

func (r *ring) epoch(t time.Time) int64 { return t.UnixNano() / int64(r.width) }

func (r *ring) add(now time.Time, bad bool) {
	e := r.epoch(now)
	i := e % int64(len(r.slots))
	if i < 0 {
		i += int64(len(r.slots))
	}
	s := &r.slots[i]
	if s.epoch != e {
		s.epoch, s.good, s.bad = e, 0, 0
	}
	if bad {
		s.bad++
	} else {
		s.good++
	}
}

// window sums the buckets covering the trailing span ending at now
// (inclusive of the current partial bucket). Spans longer than the ring
// cover whatever the ring retains.
func (r *ring) window(now time.Time, span time.Duration) (good, bad uint64) {
	hi := r.epoch(now)
	k := int64(span / r.width)
	if k < 1 {
		k = 1
	}
	lo := hi - k + 1
	for i := range r.slots {
		s := &r.slots[i]
		if s.epoch >= lo && s.epoch <= hi {
			good += s.good
			bad += s.bad
		}
	}
	return good, bad
}

// --- alert state machine ------------------------------------------------------

// State is an alert's position in the inactive -> pending -> firing cycle.
type State int

// Alert states.
const (
	StateInactive State = iota
	StatePending
	StateFiring
)

// String returns the wire name.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	}
	return "inactive"
}

// Transition is one recorded alert state change.
type Transition struct {
	At        time.Time `json:"at"`
	Objective string    `json:"objective"`
	Rule      string    `json:"rule"`
	From      string    `json:"from"`
	To        string    `json:"to"`
}

// maxTransitions bounds the retained transition log.
const maxTransitions = 64

type transLog struct {
	entries []Transition
}

func (l *transLog) add(tr Transition) {
	l.entries = append(l.entries, tr)
	if len(l.entries) > maxTransitions {
		copy(l.entries, l.entries[len(l.entries)-maxTransitions:])
		l.entries = l.entries[:maxTransitions]
	}
}

// alertState is one rule's live state.
type alertState struct {
	rule       Rule
	state      State
	since      time.Time // entered the current state
	clearSince time.Time // firing only: condition continuously false since
	shortBurn  float64
	longBurn   float64
	fired      uint64
	resolved   uint64
}

// windowCounter abstracts "good/bad counts over a trailing window" so one
// rule evaluator serves both a single engine (ring lookup) and the fleet
// aggregator (sum across member engines).
type windowCounter interface {
	windowCounts(now time.Time, span time.Duration) (good, bad uint64)
}

// burnRate converts window counts into a burn-rate multiple: the observed
// bad fraction divided by the budgeted bad fraction (1 - target).
func burnRate(good, bad uint64, errBudget float64) float64 {
	total := good + bad
	if total == 0 || errBudget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / errBudget
}

// evalRules advances every rule's state machine to now. Deterministic: the
// outcome depends only on ring contents and the injected clock.
func evalRules(now time.Time, def Objective, alerts []alertState, wc windowCounter, log *transLog) {
	errBudget := 1 - def.Target
	for i := range alerts {
		a := &alerts[i]
		gs, bs := wc.windowCounts(now, a.rule.Short)
		gl, bl := wc.windowCounts(now, a.rule.Long)
		a.shortBurn = burnRate(gs, bs, errBudget)
		a.longBurn = burnRate(gl, bl, errBudget)
		cond := a.shortBurn >= a.rule.Burn && a.longBurn >= a.rule.Burn

		transition := func(to State, toName string) {
			log.add(Transition{At: now, Objective: def.Name, Rule: a.rule.Name,
				From: a.state.String(), To: toName})
			a.state = to
			a.since = now
		}

		switch a.state {
		case StateInactive:
			if cond {
				transition(StatePending, StatePending.String())
				if a.rule.For <= 0 {
					transition(StateFiring, StateFiring.String())
					a.fired++
				}
			}
		case StatePending:
			if !cond {
				transition(StateInactive, StateInactive.String())
			} else if now.Sub(a.since) >= a.rule.For {
				transition(StateFiring, StateFiring.String())
				a.fired++
			}
		case StateFiring:
			if cond {
				a.clearSince = time.Time{} // condition back: reset hysteresis
			} else {
				if a.clearSince.IsZero() {
					a.clearSince = now
				}
				if now.Sub(a.clearSince) >= a.rule.KeepFor {
					transition(StateInactive, "resolved")
					a.resolved++
					a.clearSince = time.Time{}
				}
			}
		}
	}
}

// --- engine -------------------------------------------------------------------

// objState is one objective's live recording + alerting state.
type objState struct {
	def       Objective
	threshold float64 // seconds; latency objectives only
	fine      ring    // burn-rate windows
	budget    ring    // 28d error-budget ledger
	totalGood uint64
	totalBad  uint64
	// Last bad event, for the /metrics exemplar linking a firing burn back
	// to a retained trace.
	lastBadTrace string
	lastBadVal   float64
	lastBadTs    float64
	alerts       []alertState
}

func (o *objState) windowCounts(now time.Time, span time.Duration) (good, bad uint64) {
	return o.fine.window(now, span)
}

// classify maps one response to (counted, bad) under this objective.
func (o *objState) classify(seconds float64, status int, degraded bool) (counted, bad bool) {
	switch o.def.Kind {
	case KindAvailability:
		if status == 503 { // intentional backpressure, not failure
			return false, false
		}
		return true, status >= 500 || degraded
	case KindLatency:
		if status < 200 || status >= 300 || degraded {
			return false, false
		}
		return true, seconds > o.threshold
	}
	return false, false
}

// Engine records SLI events and drives the alert state machines for one
// server's objective set.
type Engine struct {
	mu    sync.Mutex
	clock clock.Clock
	objs  []*objState
	trans transLog
}

// New builds an engine over the given objectives (nil means
// DefaultObjectives). It panics on an invalid objective set — that is a
// programming or config-validation error upstream. Production passes the
// wall clock; tests and chaos drills pass the shared simulated clock.
func New(clk clock.Clock, objectives []Objective) *Engine {
	if len(objectives) == 0 {
		objectives = DefaultObjectives()
	}
	if err := Validate(objectives); err != nil {
		panic(err)
	}
	e := &Engine{clock: clk}
	for _, def := range objectives {
		e.objs = append(e.objs, newObjState(def))
	}
	return e
}

func newObjState(def Objective) *objState {
	maxLong := time.Hour
	for _, r := range def.Rules {
		if r.Long > maxLong {
			maxLong = r.Long
		}
	}
	return &objState{
		def:       def,
		threshold: def.Threshold.Seconds(),
		fine:      newRing(fineBucket, maxLong),
		budget:    newRing(budgetBucket, BudgetWindow),
		alerts:    newAlerts(def),
	}
}

func newAlerts(def Objective) []alertState {
	out := make([]alertState, len(def.Rules))
	for i, r := range def.Rules {
		out[i] = alertState{rule: r}
	}
	return out
}

// Objectives returns the engine's objective definitions (for aggregators
// layering fleet-level views over per-replica engines).
func (e *Engine) Objectives() []Objective {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Objective, len(e.objs))
	for i, o := range e.objs {
		out[i] = o.def
	}
	return out
}

// Record classifies one finished request under every objective. Zero
// allocations: it must be safe on the encode-once hit path.
func (e *Engine) Record(seconds float64, status int, degraded bool, traceID string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	for _, o := range e.objs {
		counted, bad := o.classify(seconds, status, degraded)
		if !counted {
			continue
		}
		o.fine.add(now, bad)
		o.budget.add(now, bad)
		if bad {
			o.totalBad++
			if traceID != "" {
				o.lastBadTrace = traceID
				o.lastBadVal = seconds
				o.lastBadTs = float64(now.UnixMilli()) / 1e3
			}
		} else {
			o.totalGood++
		}
	}
}

// Evaluate advances every alert state machine to the current clock time.
// Idempotent at a fixed clock reading; call it from the refresh tick.
func (e *Engine) Evaluate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evalLocked(e.clock.Now())
}

func (e *Engine) evalLocked(now time.Time) {
	for _, o := range e.objs {
		evalRules(now, o.def, o.alerts, o, &e.trans)
	}
}

// WindowCounts returns the named objective's good/bad counts over the
// trailing span (fine-ring resolution). Used by fleet aggregation.
func (e *Engine) WindowCounts(name string, span time.Duration) (good, bad uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objs {
		if o.def.Name == name {
			return o.fine.window(e.clock.Now(), span)
		}
	}
	return 0, 0
}

// BudgetCounts returns the named objective's good/bad counts over the
// rolling 28d budget window.
func (e *Engine) BudgetCounts(name string) (good, bad uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objs {
		if o.def.Name == name {
			return o.budget.window(e.clock.Now(), BudgetWindow)
		}
	}
	return 0, 0
}

// EventTotals returns lifetime good/bad event counts for the named
// objective — monotonic, unlike the windowed counts, so they render as
// valid Prometheus counters.
func (e *Engine) EventTotals(name string) (good, bad uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objs {
		if o.def.Name == name {
			return o.totalGood, o.totalBad
		}
	}
	return 0, 0
}

// LastBadExemplar returns the most recent bad event's trace linkage for
// the named objective (ok=false when none recorded yet).
func (e *Engine) LastBadExemplar(name string) (traceID string, value, ts float64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objs {
		if o.def.Name == name && o.lastBadTrace != "" {
			return o.lastBadTrace, o.lastBadVal, o.lastBadTs, true
		}
	}
	return "", 0, 0, false
}

// --- status snapshots ---------------------------------------------------------

// Status is the full engine snapshot served at /api/admin/slo.
type Status struct {
	Now         time.Time         `json:"now"`
	Objectives  []ObjectiveStatus `json:"objectives"`
	Transitions []Transition      `json:"transitions"`
}

// ObjectiveStatus is one objective's budget and alert view.
type ObjectiveStatus struct {
	Name             string        `json:"name"`
	Kind             string        `json:"kind"`
	Target           float64       `json:"target"`
	ThresholdSeconds float64       `json:"threshold_seconds,omitempty"`
	Budget           BudgetStatus  `json:"budget"`
	Alerts           []AlertStatus `json:"alerts"`
}

// BudgetStatus is the 28d error-budget ledger for one objective.
type BudgetStatus struct {
	WindowSeconds     float64 `json:"window_seconds"`
	Good              uint64  `json:"good"`
	Bad               uint64  `json:"bad"`
	Total             uint64  `json:"total"`
	SpentRatio        float64 `json:"spent_ratio"`
	RemainingRatio    float64 `json:"remaining_ratio"`
	ExhaustionSeconds float64 `json:"exhaustion_seconds"` // 0: not burning
}

// AlertStatus is one rule's live alert view.
type AlertStatus struct {
	Rule          string  `json:"rule"`
	Severity      string  `json:"severity"`
	State         string  `json:"state"`
	SinceMillis   int64   `json:"since_ms,omitempty"`
	BurnThreshold float64 `json:"burn_threshold"`
	ShortSeconds  float64 `json:"short_window_seconds"`
	LongSeconds   float64 `json:"long_window_seconds"`
	ShortBurn     float64 `json:"short_burn"`
	LongBurn      float64 `json:"long_burn"`
	Fired         uint64  `json:"fired_total"`
	Resolved      uint64  `json:"resolved_total"`
}

func alertStatuses(alerts []alertState) []AlertStatus {
	out := make([]AlertStatus, len(alerts))
	for i := range alerts {
		a := &alerts[i]
		st := AlertStatus{
			Rule:          a.rule.Name,
			Severity:      a.rule.Severity,
			State:         a.state.String(),
			BurnThreshold: a.rule.Burn,
			ShortSeconds:  a.rule.Short.Seconds(),
			LongSeconds:   a.rule.Long.Seconds(),
			ShortBurn:     a.shortBurn,
			LongBurn:      a.longBurn,
			Fired:         a.fired,
			Resolved:      a.resolved,
		}
		if !a.since.IsZero() {
			st.SinceMillis = a.since.UnixMilli()
		}
		out[i] = st
	}
	return out
}

// budgetStatus computes the ledger from budget-window counts plus the
// current 1h burn rate (for the exhaustion ETA).
func budgetStatus(def Objective, good, bad uint64, hourBurn float64) BudgetStatus {
	errBudget := 1 - def.Target
	total := good + bad
	st := BudgetStatus{
		WindowSeconds: BudgetWindow.Seconds(),
		Good:          good,
		Bad:           bad,
		Total:         total,
	}
	if total > 0 && errBudget > 0 {
		st.SpentRatio = float64(bad) / (float64(total) * errBudget)
	}
	st.RemainingRatio = 1 - st.SpentRatio
	if hourBurn > 0 && st.RemainingRatio > 0 {
		st.ExhaustionSeconds = st.RemainingRatio * BudgetWindow.Seconds() / hourBurn
	}
	return st
}

// objectiveStatus builds one objective's snapshot at now from its budget
// window counts, its window counter (for the last hour's burn) and its
// alert states. An engine and the fleet aggregator differ only in where
// the counts come from.
func objectiveStatus(now time.Time, def Objective, good, bad uint64, wc windowCounter, alerts []alertState) ObjectiveStatus {
	hg, hb := wc.windowCounts(now, time.Hour)
	st := ObjectiveStatus{
		Name:   def.Name,
		Kind:   string(def.Kind),
		Target: def.Target,
		Budget: budgetStatus(def, good, bad, burnRate(hg, hb, 1-def.Target)),
		Alerts: alertStatuses(alerts),
	}
	if def.Kind == KindLatency {
		st.ThresholdSeconds = def.Threshold.Seconds()
	}
	return st
}

// Status evaluates to the current clock time and returns the snapshot.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	e.evalLocked(now)
	st := Status{Now: now, Transitions: append([]Transition(nil), e.trans.entries...)}
	for _, o := range e.objs {
		good, bad := o.budget.window(now, BudgetWindow)
		st.Objectives = append(st.Objectives, objectiveStatus(now, o.def, good, bad, o, o.alerts))
	}
	return st
}

// AlertCounts returns lifetime fired/resolved totals for one rule
// (ok=false when the objective/rule pair does not exist). Chaos drills
// gate on these.
func (e *Engine) AlertCounts(objective, rule string) (fired, resolved uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objs {
		if o.def.Name != objective {
			continue
		}
		for i := range o.alerts {
			if o.alerts[i].rule.Name == rule {
				return o.alerts[i].fired, o.alerts[i].resolved, true
			}
		}
	}
	return 0, 0, false
}

// --- fleet aggregation --------------------------------------------------------

// aggObj is one fleet-level objective: counts are summed across member
// engines at evaluation time, alert state lives here.
type aggObj struct {
	def     Objective
	members func() []*Engine
	alerts  []alertState
}

func (o *aggObj) windowCounts(now time.Time, span time.Duration) (good, bad uint64) {
	for _, e := range o.members() {
		g, b := e.WindowCounts(o.def.Name, span)
		good += g
		bad += b
	}
	return good, bad
}

// Aggregator layers fleet-level objectives over a dynamic set of member
// engines: the fleet meets an objective when the pooled counts do, even
// while one replica burns — both views stay queryable.
type Aggregator struct {
	mu      sync.Mutex
	clock   clock.Clock
	members func() []*Engine
	objs    []*aggObj
	trans   transLog
}

// NewAggregator builds a fleet aggregator over the given objectives and a
// callback returning the current member engines (healthy replicas).
func NewAggregator(clk clock.Clock, objectives []Objective, members func() []*Engine) *Aggregator {
	if len(objectives) == 0 {
		objectives = DefaultObjectives()
	}
	if err := Validate(objectives); err != nil {
		panic(err)
	}
	a := &Aggregator{clock: clk, members: members}
	for _, def := range objectives {
		a.objs = append(a.objs, &aggObj{def: def, members: members, alerts: newAlerts(def)})
	}
	return a
}

// Evaluate advances the fleet-level alert state machines to now.
func (a *Aggregator) Evaluate() {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clock.Now()
	for _, o := range a.objs {
		evalRules(now, o.def, o.alerts, o, &a.trans)
	}
}

// Status evaluates and returns the fleet-level snapshot (same shape as a
// single engine's).
func (a *Aggregator) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clock.Now()
	for _, o := range a.objs {
		evalRules(now, o.def, o.alerts, o, &a.trans)
	}
	st := Status{Now: now, Transitions: append([]Transition(nil), a.trans.entries...)}
	for _, o := range a.objs {
		var good, bad uint64
		for _, e := range o.members() {
			g, b := e.BudgetCounts(o.def.Name)
			good += g
			bad += b
		}
		st.Objectives = append(st.Objectives, objectiveStatus(now, o.def, good, bad, o, o.alerts))
	}
	return st
}

// AlertCounts returns fleet-level lifetime fired/resolved totals for one
// rule.
func (a *Aggregator) AlertCounts(objective, rule string) (fired, resolved uint64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, o := range a.objs {
		if o.def.Name != objective {
			continue
		}
		for i := range o.alerts {
			if o.alerts[i].rule.Name == rule {
				return o.alerts[i].fired, o.alerts[i].resolved, true
			}
		}
	}
	return 0, 0, false
}
