package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"ooddash/internal/slurm"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		samples = append(samples, float64(i))
	}
	if got := percentile(samples, 0.50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(samples, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile([]float64{3}, 0.99); got != 3 {
		t.Errorf("p99 of one sample = %v, want 3", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestPercentileFailuresSortAsInf(t *testing.T) {
	// 98 fast pages and 2 failed ones: a failure misses every latency
	// limit, so p99 is +Inf while p50 is unaffected.
	samples := []float64{math.Inf(1)}
	for i := 0; i < 98; i++ {
		samples = append(samples, 1)
	}
	samples = append(samples, math.Inf(1))
	if got := percentile(samples, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := percentile(samples, 0.50); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
		{"unsorted", []interval{{150, 170}, {110, 160}}, 40},
		{"sticking out", []interval{{50, 120}, {180, 260}}, 60},
		{"outside", []interval{{0, 50}, {250, 300}}, 100},
		{"covering", []interval{{90, 210}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRecorderSelfTimes(t *testing.T) {
	rec := newRecorder(1)
	rec.on.Store(true)
	l := rec.lanes[0]
	page := rec.begin(l, kindPage)
	req := rec.begin(l, kindRequest)
	ctx := context.WithValue(context.Background(), laneKey{}, l)
	rec.leaf(ctx, kindCommand, "squeue", func() {})
	rec.end(l, req)
	rec.end(l, page)
	// A leaf with no named lane lands on the only busy lane; with none busy
	// it is an orphan.
	rec.leaf(context.Background(), kindCommand, "sinfo", func() {})
	lt := rec.aggregate()
	if lt.pages != 1 || lt.requests != 1 || lt.commands != 2 || lt.orphans != 1 {
		t.Fatalf("counts: %+v", lt)
	}
	if lt.commandsByName["squeue"] != 1 || lt.commandsByName["sinfo"] != 1 {
		t.Errorf("by name: %v", lt.commandsByName)
	}
	sp := l.spans
	if sp[1].parent != 0 || sp[2].parent != 1 {
		t.Errorf("parents: request %d, command %d; want 0, 1", sp[1].parent, sp[2].parent)
	}
	wantPage := (sp[0].end - sp[0].start) - (sp[1].end - sp[1].start)
	if lt.pageSelf != wantPage {
		t.Errorf("page self = %d, want %d", lt.pageSelf, wantPage)
	}
	wantReq := (sp[1].end - sp[1].start) - (sp[2].end - sp[2].start)
	if lt.requestSelf != wantReq {
		t.Errorf("request self = %d, want %d", lt.requestSelf, wantReq)
	}
}

func TestCheckDrift(t *testing.T) {
	flat := []float64{1000, 1050, 980, 1020, 990}
	cases := []struct {
		name          string
		start, end    int
		fifths        []float64
		wantErrSubstr string
	}{
		{"steady", 60, 70, flat, ""},
		{"small queue wanders inside the floor", 10, 29, flat, ""},
		{"queue doubles", 562, 1076, flat, "queue drifted"},
		{"queue drains", 100, 40, flat, "queue drifted"},
		{"one noisy fifth", 60, 60, []float64{1000, 1300, 1000, 750, 1000}, ""},
		{"cluster drains, pages speed up", 60, 60, []float64{12200, 13500, 15000, 17500, 19100}, "page rate drifted"},
		{"backlog grows, pages slow down", 60, 60, []float64{9000, 8500, 7600, 6000, 5500}, "page rate drifted"},
		{"no fifths", 60, 60, nil, "unavailable"},
	}
	for _, c := range cases {
		err := checkDrift(c.start, c.end, c.fifths)
		switch {
		case c.wantErrSubstr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErrSubstr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErrSubstr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErrSubstr)
		}
	}
}

func TestFifthRates(t *testing.T) {
	pages := []int{10, 10, 20, 20, 30, 30, 40, 40, 50, 50}
	nanos := make([]int64, len(pages))
	for i := range nanos {
		nanos[i] = 1e9
	}
	got := fifthRates(pages, nanos)
	want := []float64{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fifthRates = %v, want %v", got, want)
		}
	}
}

func TestRPCsPerUserMinuteExcludesSubmits(t *testing.T) {
	before := map[slurm.RPCKind]int64{slurm.RPCSqueue: 100, slurm.RPCSubmit: 40}
	after := map[slurm.RPCKind]int64{
		slurm.RPCSqueue:    160,
		slurm.RPCSinfo:     20,
		slurm.RPCSubmit:    90, // the benchmark's own arrivals
		slurm.RPCAssocInfo: 10,
	}
	n := dashboardRPCs(rpcDelta(after, before))
	if n != 90 {
		t.Fatalf("dashboard RPCs = %d, want 90 (60 squeue + 20 sinfo + 10 assoc)", n)
	}
	if got := perUserMinute(n, 30, 2); got != 1.5 {
		t.Errorf("per user-minute = %v, want 1.5", got)
	}
	if got := perUserMinute(n, 0, 2); got != 0 {
		t.Errorf("no users: %v, want 0", got)
	}
}

func TestFifthBoundsCoverEveryStep(t *testing.T) {
	for _, n := range []int{5, 7, 240, 1001} {
		next := 0
		for f := 0; f < 5; f++ {
			lo, hi := fifth(n, f)
			if lo != next || hi <= lo {
				t.Fatalf("n=%d fifth %d = [%d, %d), want to start at %d and be non-empty", n, f, lo, hi, next)
			}
			next = hi
		}
		if next != n {
			t.Fatalf("n=%d: fifths end at %d", n, next)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 4}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}
