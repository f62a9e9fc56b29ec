package slo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ooddash/internal/clock"
)

func newTestClock() *clock.Sim { return clock.NewSim(time.Unix(1_700_000_000, 0).UTC()) }

// testObjectives is a small, fast-burning objective set for unit tests:
// 90% availability with a 2x burn rule over 2m/10m windows.
func testObjectives(forDur, keepFor time.Duration) []Objective {
	return []Objective{{
		Name:   "availability",
		Kind:   KindAvailability,
		Target: 0.9,
		Rules: []Rule{{Name: "page", Severity: "page", Burn: 2,
			Short: 2 * time.Minute, Long: 10 * time.Minute,
			For: forDur, KeepFor: keepFor}},
	}}
}

func alertState0(t *testing.T, e *Engine) AlertStatus {
	t.Helper()
	st := e.Status()
	if len(st.Objectives) == 0 || len(st.Objectives[0].Alerts) == 0 {
		t.Fatal("no objectives/alerts in status")
	}
	return st.Objectives[0].Alerts[0]
}

func TestSLOStateMachineLifecycle(t *testing.T) {
	clk := newTestClock()
	e := New(clk, testObjectives(time.Minute, time.Minute))

	record := func(n int, status int) {
		for i := 0; i < n; i++ {
			e.Record(0.001, status, false, "trace-1")
		}
	}

	record(10, 200)
	e.Evaluate()
	if got := alertState0(t, e).State; got != "inactive" {
		t.Fatalf("healthy traffic: state = %q, want inactive", got)
	}

	// Burst of 5xx: condition true, but must hold For=1m before firing.
	clk.Advance(30 * time.Second)
	record(10, 500)
	e.Evaluate()
	if got := alertState0(t, e).State; got != "pending" {
		t.Fatalf("after burst: state = %q, want pending", got)
	}

	clk.Advance(30 * time.Second)
	record(10, 500)
	e.Evaluate()
	if got := alertState0(t, e).State; got != "pending" {
		t.Fatalf("30s into For: state = %q, want pending", got)
	}

	clk.Advance(30 * time.Second)
	e.Evaluate()
	a := alertState0(t, e)
	if a.State != "firing" || a.Fired != 1 {
		t.Fatalf("past For: state = %q fired = %d, want firing/1", a.State, a.Fired)
	}

	// Recovery: the bad buckets age out of the 2m short window; the long
	// window still remembers them, but the AND condition breaks, and after
	// KeepFor=1m of clean the alert resolves.
	for i := 0; i < 8; i++ {
		clk.Advance(30 * time.Second)
		record(10, 200)
		e.Evaluate()
	}
	a = alertState0(t, e)
	if a.State != "inactive" || a.Resolved != 1 {
		t.Fatalf("after recovery: state = %q resolved = %d, want inactive/1", a.State, a.Resolved)
	}

	// Transition log tells the same story in order.
	var tos []string
	for _, tr := range e.Status().Transitions {
		tos = append(tos, tr.From+">"+tr.To)
	}
	want := []string{"inactive>pending", "pending>firing", "firing>resolved"}
	if strings.Join(tos, " ") != strings.Join(want, " ") {
		t.Fatalf("transitions = %v, want %v", tos, want)
	}
}

func TestSLOPendingCancelsWithoutFiring(t *testing.T) {
	clk := newTestClock()
	e := New(clk, testObjectives(2*time.Minute, time.Minute))

	for i := 0; i < 10; i++ {
		e.Record(0.001, 500, false, "")
	}
	e.Evaluate()
	if got := alertState0(t, e).State; got != "pending" {
		t.Fatalf("state = %q, want pending", got)
	}

	// Blip clears before For elapses: back to inactive, nothing fired.
	for i := 0; i < 5; i++ {
		clk.Advance(30 * time.Second)
		for j := 0; j < 50; j++ {
			e.Record(0.001, 200, false, "")
		}
		e.Evaluate()
	}
	a := alertState0(t, e)
	if a.State != "inactive" || a.Fired != 0 {
		t.Fatalf("state = %q fired = %d, want inactive/0", a.State, a.Fired)
	}
	for _, tr := range e.Status().Transitions {
		if tr.To == "firing" {
			t.Fatalf("blip fired: %+v", tr)
		}
	}
}

func TestSLORecordClassification(t *testing.T) {
	clk := newTestClock()
	objs := []Objective{
		testObjectives(0, 0)[0],
		{Name: "latency", Kind: KindLatency, Target: 0.9,
			Threshold: 100 * time.Millisecond,
			Rules: []Rule{{Name: "ticket", Severity: "ticket", Burn: 2,
				Short: 2 * time.Minute, Long: 10 * time.Minute}}},
	}
	e := New(clk, objs)

	e.Record(0.001, 200, false, "") // avail good; latency good
	e.Record(0.500, 200, false, "") // avail good; latency bad (slow)
	e.Record(0.001, 304, false, "") // avail good; latency ignored (not 2xx)
	e.Record(0.001, 404, false, "") // avail good; latency ignored
	e.Record(0.001, 200, true, "")  // avail bad (degraded); latency ignored
	e.Record(0.001, 500, false, "") // avail bad; latency ignored
	e.Record(0.001, 503, false, "") // both ignored: intentional backpressure

	if g, b := e.WindowCounts("availability", time.Minute); g != 4 || b != 2 {
		t.Fatalf("availability counts = %d/%d, want 4 good / 2 bad", g, b)
	}
	if g, b := e.WindowCounts("latency", time.Minute); g != 1 || b != 1 {
		t.Fatalf("latency counts = %d/%d, want 1 good / 1 bad", g, b)
	}
	if g, b := e.BudgetCounts("availability"); g != 4 || b != 2 {
		t.Fatalf("availability budget = %d/%d, want 4/2", g, b)
	}
}

func TestSLOBudgetLedger(t *testing.T) {
	clk := newTestClock()
	e := New(clk, testObjectives(0, 0))

	// 95 good + 5 bad against a 10% budget of 100 events: half spent, and
	// at the current 0.5x burn the remaining half lasts one full window.
	for i := 0; i < 95; i++ {
		e.Record(0.001, 200, false, "")
	}
	for i := 0; i < 5; i++ {
		e.Record(0.001, 500, false, "")
	}
	b := e.Status().Objectives[0].Budget
	if b.Total != 100 || b.Bad != 5 {
		t.Fatalf("budget counts = %+v", b)
	}
	approx := func(got, want float64) bool { return got > want*0.999 && got < want*1.001 }
	if !approx(b.SpentRatio, 0.5) || !approx(b.RemainingRatio, 0.5) {
		t.Fatalf("spent/remaining = %v/%v, want ~0.5/0.5", b.SpentRatio, b.RemainingRatio)
	}
	if !approx(b.ExhaustionSeconds, BudgetWindow.Seconds()) {
		t.Fatalf("exhaustion = %v, want ~%v", b.ExhaustionSeconds, BudgetWindow.Seconds())
	}

	// Old events age out of the 28d ledger.
	clk.Advance(BudgetWindow + 2*budgetBucket)
	if g, b := e.BudgetCounts("availability"); g != 0 || b != 0 {
		t.Fatalf("expired budget counts = %d/%d, want 0/0", g, b)
	}
}

func TestSLOWindowAging(t *testing.T) {
	clk := newTestClock()
	e := New(clk, testObjectives(0, 0))
	for i := 0; i < 10; i++ {
		e.Record(0.001, 500, false, "")
	}
	if _, b := e.WindowCounts("availability", 2*time.Minute); b != 10 {
		t.Fatalf("bad in window = %d, want 10", b)
	}
	clk.Advance(3 * time.Minute)
	if _, b := e.WindowCounts("availability", 2*time.Minute); b != 0 {
		t.Fatalf("bad after aging = %d, want 0", b)
	}
	if _, b := e.WindowCounts("availability", 10*time.Minute); b != 10 {
		t.Fatalf("bad in long window = %d, want 10", b)
	}
}

func TestSLOTransitionLogBounded(t *testing.T) {
	clk := newTestClock()
	e := New(clk, testObjectives(0, 0)) // For=0, KeepFor=0: flaps freely
	for i := 0; i < 40; i++ {
		e.Record(0.001, 500, false, "")
		e.Evaluate() // inactive -> pending -> firing (2 transitions)
		clk.Advance(15 * time.Minute)
		e.Evaluate() // windows empty -> resolved (1 transition)
	}
	trs := e.Status().Transitions
	if len(trs) != maxTransitions {
		t.Fatalf("transition log length = %d, want %d", len(trs), maxTransitions)
	}
	if f, r, ok := e.AlertCounts("availability", "page"); !ok || f != 40 || r != 40 {
		t.Fatalf("alert counts = %d/%d/%v, want 40/40/true", f, r, ok)
	}
}

func TestSLOEngineDeterminism(t *testing.T) {
	run := func() []byte {
		clk := newTestClock()
		e := New(clk, DefaultObjectives())
		for step := 0; step < 20; step++ {
			for i := 0; i < 7; i++ {
				e.Record(0.003, 200, false, "t-good")
			}
			if step >= 4 && step < 9 {
				e.Record(0.3, 500, false, "t-bad")
				e.Record(0.4, 200, true, "t-degraded")
			}
			e.Evaluate()
			clk.Advance(47 * time.Second)
		}
		buf, err := json.Marshal(e.Status())
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical event sequences produced different status bytes:\n%s\n---\n%s", a, b)
	}
}

func TestSLORecordAllocFree(t *testing.T) {
	clk := newTestClock()
	e := New(clk, DefaultObjectives())
	if n := testing.AllocsPerRun(200, func() {
		e.Record(0.002, 200, false, "trace-xyz")
	}); n != 0 {
		t.Fatalf("good-path Record allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		e.Record(0.8, 500, false, "trace-xyz")
	}); n != 0 {
		t.Fatalf("bad-path Record allocates %v/op, want 0", n)
	}
}

func TestSLOAggregatorFleetView(t *testing.T) {
	clk := newTestClock()
	objs := testObjectives(0, time.Minute)
	burning := New(clk, objs)
	healthy := New(clk, objs)
	agg := NewAggregator(clk, objs, func() []*Engine { return []*Engine{burning, healthy} })

	// One replica takes every error; the other carries enough good traffic
	// that the pooled burn rate stays under threshold.
	for i := 0; i < 10; i++ {
		burning.Record(0.001, 500, false, "t-burn")
	}
	for i := 0; i < 90; i++ {
		healthy.Record(0.001, 200, false, "")
	}
	burning.Evaluate()
	healthy.Evaluate()
	agg.Evaluate()

	if got := alertState0(t, burning).State; got != "firing" {
		t.Fatalf("burning replica state = %q, want firing", got)
	}
	if got := agg.Status().Objectives[0].Alerts[0].State; got != "inactive" {
		t.Fatalf("fleet state = %q, want inactive (objective met by the fleet)", got)
	}
	fg, fb := 0, 0
	for _, e := range []*Engine{burning, healthy} {
		g, b := e.WindowCounts("availability", 2*time.Minute)
		fg += int(g)
		fb += int(b)
	}
	if fg != 90 || fb != 10 {
		t.Fatalf("pooled counts = %d/%d, want 90/10", fg, fb)
	}

	// Push the whole fleet over budget: the aggregate fires too.
	for i := 0; i < 400; i++ {
		healthy.Record(0.001, 500, false, "t-burn")
	}
	agg.Evaluate()
	if got := agg.Status().Objectives[0].Alerts[0].State; got != "firing" {
		t.Fatalf("fleet state = %q, want firing after fleet-wide burn", got)
	}
	if f, _, ok := agg.AlertCounts("availability", "page"); !ok || f != 1 {
		t.Fatalf("fleet fired = %d/%v, want 1/true", f, ok)
	}
}

func TestSLOLastBadExemplar(t *testing.T) {
	clk := newTestClock()
	e := New(clk, DefaultObjectives())
	if _, _, _, ok := e.LastBadExemplar("availability"); ok {
		t.Fatal("exemplar before any bad event")
	}
	e.Record(0.7, 500, false, "trace-bad-1")
	id, v, _, ok := e.LastBadExemplar("availability")
	if !ok || id != "trace-bad-1" || v != 0.7 {
		t.Fatalf("exemplar = %q/%v/%v", id, v, ok)
	}
}

// configGood and configBad are TestSLOConfigParse's inputs; FuzzParseConfig
// seeds from them.
var configGood = `{
  "objectives": [
    {"name": "availability", "kind": "availability", "target": 0.995,
     "rules": [
       {"name": "page", "burn": 10, "short": "5m", "long": "1h",
        "for": "90s", "keep_for": "2m"}
     ]},
    {"name": "latency", "kind": "latency", "target": 0.99,
     "threshold": "150ms",
     "rules": [
       {"name": "ticket", "severity": "ticket", "burn": 3,
        "short": "30m", "long": "6h"}
     ]}
  ]
}`

var configBad = []string{
	`{`, // malformed JSON
	`{"objectives": []}`,
	`{"objectives": [{"name": "x", "kind": "nope", "target": 0.9,
	  "rules": [{"name": "r", "burn": 1, "short": "1m", "long": "5m"}]}]}`,
	`{"objectives": [{"name": "x", "kind": "availability", "target": 1.5,
	  "rules": [{"name": "r", "burn": 1, "short": "1m", "long": "5m"}]}]}`,
	`{"objectives": [{"name": "x", "kind": "availability", "target": 0.9,
	  "rules": [{"name": "r", "burn": 1, "short": "5m", "long": "1m"}]}]}`,
	`{"objectives": [{"name": "x", "kind": "availability", "target": 0.9,
	  "rules": [{"name": "r", "burn": 1, "short": "oops", "long": "5m"}]}]}`,
	`{"objectives": [{"name": "x", "kind": "latency", "target": 0.9,
	  "rules": [{"name": "r", "burn": 1, "short": "1m", "long": "5m"}]}]}`,
	`{"objectives": [{"name": "x", "kind": "availability", "target": 0.9,
	  "rules": [{"name": "r", "burn": 1, "short": "1m", "long": "10000h"}]}]}`,
}

func TestSLOConfigParse(t *testing.T) {
	objs, err := ParseConfig([]byte(configGood))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives, want 2", len(objs))
	}
	av := objs[0]
	if av.Target != 0.995 || av.Rules[0].For != 90*time.Second || av.Rules[0].KeepFor != 2*time.Minute {
		t.Fatalf("availability parsed wrong: %+v", av)
	}
	if av.Rules[0].Severity != "page" {
		t.Fatalf("severity should default to rule name, got %q", av.Rules[0].Severity)
	}
	lat := objs[1]
	if lat.Threshold != 150*time.Millisecond || lat.Rules[0].Long != 6*time.Hour {
		t.Fatalf("latency parsed wrong: %+v", lat)
	}

	for i, src := range configBad {
		if _, err := ParseConfig([]byte(src)); err == nil {
			t.Errorf("bad config %d parsed without error", i)
		}
	}
	// A window past the budget window names the objective and the rule.
	_, err = ParseConfig([]byte(configBad[len(configBad)-1]))
	if err == nil || !strings.Contains(err.Error(), "x/r") || !strings.Contains(err.Error(), "long window") {
		t.Errorf("over-long window error = %v, want one naming x/r and its long window", err)
	}
}

func TestSLODefaultObjectivesValid(t *testing.T) {
	if err := Validate(DefaultObjectives()); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseConfig: no input panics ParseConfig, and every objective set it
// accepts passes Validate and has no rule window longer than the budget
// window. Seeds are TestSLOConfigParse's inputs.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(configGood))
	for _, src := range configBad {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, err := ParseConfig(data)
		if err != nil {
			return
		}
		if err := Validate(objs); err != nil {
			t.Fatalf("ParseConfig accepted %q, which fails Validate: %v", data, err)
		}
		for _, o := range objs {
			for _, r := range o.Rules {
				if r.Long > BudgetWindow {
					t.Fatalf("ParseConfig accepted %q: %s/%s long window %v > %v",
						data, o.Name, r.Name, r.Long, BudgetWindow)
				}
			}
		}
	})
}
