package experiments

import (
	"testing"
	"time"

	"ooddash/internal/workload"
)

// newSmallStack boots the small workload for fast experiment tests.
func newSmallStack(t *testing.T) *Stack {
	t.Helper()
	s, err := NewStack(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestTable1AllRowsServe(t *testing.T) {
	s := newSmallStack(t)
	rows, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("rows = %d, want >= 10", len(rows))
	}
	for _, r := range rows {
		if r.Cold <= 0 || r.Warm <= 0 || r.Bytes == 0 {
			t.Errorf("row %s: cold=%v warm=%v bytes=%d", r.Feature, r.Cold, r.Warm, r.Bytes)
		}
	}
	// Shape: Slurm-backed rows must be faster cached than cold. Loopback
	// HTTP noise can blur sub-millisecond rows, so check the heaviest row
	// (My Jobs over the whole history) rather than each individually.
	for _, r := range rows {
		if r.Feature == "My Jobs" && r.Speedup() < 1 {
			t.Errorf("My Jobs cached slower than cold: %+v", r)
		}
	}
}

func TestTable1SourcesVerified(t *testing.T) {
	s := newSmallStack(t)
	verified, err := VerifyTable1Sources(s)
	if err != nil {
		t.Fatal(err)
	}
	for feature, ok := range verified {
		if !ok {
			t.Errorf("feature %q did not drive its stated Slurm RPC", feature)
		}
	}
	if len(verified) < 8 {
		t.Fatalf("probed features = %d", len(verified))
	}
}

func TestFigure1FlowShrinksPerLayer(t *testing.T) {
	s := newSmallStack(t)
	res, err := Figure1DataFlow(s, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.WidgetViews != 8*6*5 {
		t.Fatalf("widget views = %d", res.WidgetViews)
	}
	// Layered shrink: widget views > network calls > ctl RPCs.
	if !(res.WidgetViews > res.NetworkCalls) {
		t.Fatalf("network calls %d not below widget views %d", res.NetworkCalls, res.WidgetViews)
	}
	if !(int64(res.NetworkCalls) > res.CtlRPCs) {
		t.Fatalf("ctl RPCs %d not below network calls %d", res.CtlRPCs, res.NetworkCalls)
	}
	if res.ClientFresh+res.ClientStale == 0 {
		t.Fatal("client cache never hit")
	}
	if res.NewsRequests > 2 {
		t.Fatalf("news requests = %d, want <= 2 (30-minute TTL)", res.NewsRequests)
	}
}

func TestFigure2WarmIsInstant(t *testing.T) {
	s := newSmallStack(t)
	res, err := Figure2Homepage(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.WidgetCount != 5 || res.ColdFetches != 5 {
		t.Fatalf("cold = %+v", res)
	}
	if res.WarmFetches != 0 || res.WarmLatency != 0 || res.WarmInstant != 5 {
		t.Fatalf("warm revisit not instant: %+v", res)
	}
	if res.ColdLatency <= 0 {
		t.Fatalf("cold latency = %v", res.ColdLatency)
	}
	// Server-cache-only revisit still needs network but beats cold.
	if res.ServerWarmLat <= 0 || res.ServerWarmLat >= res.ColdLatency*3 {
		t.Fatalf("server-warm latency %v vs cold %v", res.ServerWarmLat, res.ColdLatency)
	}
}

func TestFigure3MyJobsShape(t *testing.T) {
	s := newSmallStack(t)
	res, err := Figure3MyJobs(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("empty table")
	}
	if res.States["COMPLETED"] == 0 || res.States["FAILED"] == 0 {
		t.Fatalf("states = %+v, want completed and failed present", res.States)
	}
	if res.WithEffData == 0 {
		t.Fatal("no rows carry efficiency data")
	}
	if res.WithWarnings == 0 {
		t.Fatal("no wasteful jobs flagged (trace has interactive sessions)")
	}
}

func TestFigure4aMonotonicRanges(t *testing.T) {
	s := newSmallStack(t)
	rows, err := Figure4aJobPerf(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// 24h <= 7d <= 30d <= 90d <= all.
	for i := 1; i < 5; i++ {
		if rows[i].TotalJobs < rows[i-1].TotalJobs {
			t.Fatalf("range %s has fewer jobs (%d) than %s (%d)",
				rows[i].Range, rows[i].TotalJobs, rows[i-1].Range, rows[i-1].TotalJobs)
		}
	}
	if rows[4].TotalJobs == 0 {
		t.Fatal("all-time shows zero jobs")
	}
}

func TestFigure4bScalesWithNodes(t *testing.T) {
	rows, err := Figure4bClusterStatus([]int{32, 128}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Nodes >= rows[1].Nodes {
		t.Fatalf("node counts not increasing: %d then %d", rows[0].Nodes, rows[1].Nodes)
	}
	if rows[1].Bytes <= rows[0].Bytes {
		t.Fatalf("payload did not grow with cluster: %d then %d", rows[0].Bytes, rows[1].Bytes)
	}
}

func TestFigure4cBusiestNode(t *testing.T) {
	s := newSmallStack(t)
	res, err := Figure4cNodeOverview(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node == "" || res.State == "" {
		t.Fatalf("res = %+v", res)
	}
	if res.RunningJobs == 0 {
		t.Fatalf("busiest node %s shows no running jobs", res.Node)
	}
	if res.CPUPercent <= 0 {
		t.Fatalf("cpu%% = %v", res.CPUPercent)
	}
}

func TestFigure4dLogCapAndArray(t *testing.T) {
	s := newSmallStack(t)
	res, err := Figure4dJobOverview(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogTotalLines != 50_000 || res.LogShownLines != 1000 || !res.LogTruncated {
		t.Fatalf("log view = %+v", res)
	}
	if res.ArrayTasks != 100 {
		t.Fatalf("array tasks = %d", res.ArrayTasks)
	}
	if res.TimelineDone < 3 { // submitted, eligible, started
		t.Fatalf("timeline done = %d", res.TimelineDone)
	}
}

func TestSection24CacheShieldsController(t *testing.T) {
	s := newSmallStack(t)
	on, err := Section24CacheLoad(s, []int{4, 16}, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Section24CacheLoad(s, []int{4, 16}, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	// 4 and 16 users stay below the fill-admission cap, so neither arm may
	// shed a request.
	for _, rows := range [][]CacheLoadRow{on, off} {
		for _, row := range rows {
			if row.Rejected != 0 {
				t.Fatalf("%d requests shed (row %+v)", row.Rejected, row)
			}
		}
	}
	// Cache on: RPCs per request collapse far below 1.
	for _, row := range on {
		if row.RPCsPerReq > 0.5 {
			t.Fatalf("cache-on RPCs/req = %v (row %+v)", row.RPCsPerReq, row)
		}
	}
	// Cache off: every request reaches the controller.
	for _, row := range off {
		if row.RPCsPerReq < 0.9 {
			t.Fatalf("cache-off RPCs/req = %v (row %+v)", row.RPCsPerReq, row)
		}
	}
	// Shape: off-RPCs grow with users, on-RPCs grow much slower.
	if off[1].CtlRPCs <= off[0].CtlRPCs {
		t.Fatalf("cache-off RPCs not growing: %+v", off)
	}
	if on[1].CtlRPCs >= off[1].CtlRPCs {
		t.Fatalf("cache-on RPCs (%d) not below cache-off (%d)", on[1].CtlRPCs, off[1].CtlRPCs)
	}
}

func TestSection24TTLSweepTradeoff(t *testing.T) {
	s := newSmallStack(t)
	rows, err := Section24TTLSweep(s, []time.Duration{
		5 * time.Second, 30 * time.Second, 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// RPCs fall with TTL; staleness rises and stays bounded by the TTL.
	for i := 1; i < len(rows); i++ {
		if rows[i].CtlRPCs > rows[i-1].CtlRPCs {
			t.Fatalf("RPCs rose with TTL: %+v", rows)
		}
	}
	for _, r := range rows {
		if r.MaxStaleness > r.TTL+5*time.Second {
			t.Fatalf("staleness %v exceeds TTL %v", r.MaxStaleness, r.TTL)
		}
	}
	if rows[0].CtlRPCs == rows[len(rows)-1].CtlRPCs {
		t.Fatalf("TTL had no effect: %+v", rows)
	}
}

func TestSection24SingleflightCollapsesBurst(t *testing.T) {
	s := newSmallStack(t)
	rows, err := Section24Singleflight(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	var with, without int64
	for _, r := range rows {
		if r.Collapsing {
			with = r.CtlRPCs
		} else {
			without = r.CtlRPCs
		}
	}
	if with != 1 {
		t.Fatalf("collapsed burst cost %d RPCs, want 1", with)
	}
	if without != 16 {
		t.Fatalf("uncollapsed burst cost %d RPCs, want 16", without)
	}
}

func TestSection24PrivacyNoViolations(t *testing.T) {
	s := newSmallStack(t)
	res, err := Section24Privacy(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("privacy violations: %v", res.Violations)
	}
	if res.Probes == 0 || res.OwnerAllowed == 0 || res.OutsiderDenied == 0 {
		t.Fatalf("probe coverage too thin: %+v", res)
	}
	if res.LogOthersDenied == 0 {
		t.Fatalf("log denial never exercised: %+v", res)
	}
}

func TestExtensionEventsVsPolling(t *testing.T) {
	s := newSmallStack(t)
	rows, err := ExtensionEventsVsPolling(s, 12, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var poll, feed MonitoringRow
	for _, r := range rows {
		switch r.Mechanism {
		case "squeue-poll":
			poll = r
		case "event-feed":
			feed = r
		}
	}
	if poll.Polls != feed.Polls {
		t.Fatalf("poll counts differ: %d vs %d", poll.Polls, feed.Polls)
	}
	// Shape: the delta feed moves far fewer bytes than repeated full polls.
	if feed.Bytes*5 > poll.Bytes {
		t.Fatalf("event feed bytes %d not well below polling bytes %d", feed.Bytes, poll.Bytes)
	}
	// Both mechanisms observe state changes.
	if feed.Updates == 0 {
		t.Fatal("event feed delivered no updates")
	}
}

func TestExtensionPreemptionTurnaround(t *testing.T) {
	res, err := ExtensionPreemption()
	if err != nil {
		t.Fatal(err)
	}
	if res.WithPreemption != 0 {
		t.Fatalf("with preemption the urgent job waited %v, want immediate start", res.WithPreemption)
	}
	if res.WithoutPreemption < 2*time.Hour {
		t.Fatalf("without preemption wait = %v, want hours", res.WithoutPreemption)
	}
	if res.RequeuedJobs == 0 {
		t.Fatal("no standby jobs were requeued")
	}
}

func TestExtensionInsightsCoverage(t *testing.T) {
	s := newSmallStack(t)
	cov, err := ExtensionInsightsCoverage(s)
	if err != nil {
		t.Fatal(err)
	}
	if cov.UsersAnalyzed == 0 {
		t.Fatal("no users analyzed")
	}
	if cov.UsersWithFinding == 0 {
		t.Fatal("trace with wasteful sessions produced no findings")
	}
	if len(cov.FindingsByKind) == 0 {
		t.Fatalf("coverage = %+v", cov)
	}
}
