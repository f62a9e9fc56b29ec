package ooddash

// One benchmark per table and figure of the paper's evaluation, plus the
// §2.4 performance/privacy claims and the ablations DESIGN.md calls out.
// The heavyweight experiment logic lives in internal/experiments; these
// benchmarks measure the steady-state cost of each reproduced artifact.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ooddash/internal/experiments"
	"ooddash/internal/workload"
)

var (
	stackOnce sync.Once
	stackVal  *experiments.Stack
	stackErr  error
	subjects  experiments.Subjects
)

// sharedStack returns the default-spec deployment (512 nodes, ~34k
// accounting records), built once per test binary.
func sharedStack(b *testing.B) *experiments.Stack {
	b.Helper()
	stackOnce.Do(func() {
		stackVal, stackErr = experiments.NewStack(workload.DefaultSpec())
		if stackErr == nil {
			subjects, stackErr = stackVal.PickSubjects()
		}
	})
	if stackErr != nil {
		b.Fatalf("building shared stack: %v", stackErr)
	}
	return stackVal
}

// smallStack builds a private small-spec deployment for benchmarks that
// mutate the simulated clock or global cache flags.
func smallStack(b *testing.B) *experiments.Stack {
	b.Helper()
	s, err := experiments.NewStack(workload.SmallSpec())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// benchRoute measures one API route in cold (server cache cleared every
// iteration) and cached sub-benchmarks.
func benchRoute(b *testing.B, user, path string) {
	s := sharedStack(b)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.ClearServerCache()
			if _, _, err := s.MustGet(user, path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, _, err := s.MustGet(user, path); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.MustGet(user, path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table 1: one benchmark per feature row ----------------------------------

func BenchmarkTable1_AnnouncementsWidget(b *testing.B) {
	benchRoute(b, sharedStack(b).User(0), "/api/announcements")
}

func BenchmarkTable1_RecentJobsWidget(b *testing.B) {
	benchRoute(b, sharedStack(b).User(0), "/api/recent_jobs")
}

func BenchmarkTable1_SystemStatusWidget(b *testing.B) {
	benchRoute(b, sharedStack(b).User(0), "/api/system_status")
}

func BenchmarkTable1_AccountsWidget(b *testing.B) {
	benchRoute(b, sharedStack(b).User(0), "/api/accounts")
}

func BenchmarkTable1_StorageWidget(b *testing.B) {
	benchRoute(b, sharedStack(b).User(0), "/api/storage")
}

func BenchmarkTable1_MyJobs(b *testing.B) {
	s := sharedStack(b)
	benchRoute(b, subjects.User, "/api/myjobs?range=7d")
	_ = s
}

func BenchmarkTable1_JobPerformanceMetrics(b *testing.B) {
	benchRoute(b, subjects.User, "/api/jobperf?range=7d")
}

func BenchmarkTable1_ClusterStatus(b *testing.B) {
	benchRoute(b, sharedStack(b).User(0), "/api/cluster_status")
}

func BenchmarkTable1_JobOverview(b *testing.B) {
	sharedStack(b)
	benchRoute(b, subjects.User, fmt.Sprintf("/api/job/%d", subjects.JobID))
}

func BenchmarkTable1_NodeOverview(b *testing.B) {
	sharedStack(b)
	benchRoute(b, subjects.User, "/api/node/"+subjects.Node)
}

func BenchmarkTable1_JobLogView(b *testing.B) {
	s := sharedStack(b)
	owner := subjects.User
	if j := s.Env.Cluster.DBD.Job(subjects.LogJobID); j != nil {
		owner = j.User
	}
	benchRoute(b, owner, fmt.Sprintf("/api/job/%d/logs", subjects.LogJobID))
}

func BenchmarkTable1_JobArrayTab(b *testing.B) {
	s := sharedStack(b)
	if subjects.ArrayJobID == 0 {
		b.Skip("trace has no job arrays")
	}
	owner := subjects.User
	if j := s.Env.Cluster.DBD.Job(subjects.ArrayJobID); j != nil {
		owner = j.User
	}
	benchRoute(b, owner, fmt.Sprintf("/api/job/%d/array", subjects.ArrayJobID))
}

// --- Figure 1: end-to-end data flow -------------------------------------------

func BenchmarkFigure1_DataFlow(b *testing.B) {
	s := smallStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1DataFlow(s, 10, 3)
		if err != nil {
			b.Fatal(err)
		}
		if res.CtlRPCs >= int64(res.WidgetViews) {
			b.Fatalf("funnel inverted: %+v", res)
		}
	}
}

// --- Figure 2: homepage load --------------------------------------------------

func BenchmarkFigure2_HomepageColdLoad(b *testing.B) {
	s := sharedStack(b)
	user := s.User(0)
	for i := 0; i < b.N; i++ {
		s.ClearServerCache()
		br := s.Browser(user)
		load := br.LoadHomepage()
		if !load.FullyPainted() || load.NetworkFetches != 5 {
			b.Fatalf("cold load = %+v", load)
		}
	}
}

func BenchmarkFigure2_HomepageWarmLoad(b *testing.B) {
	s := sharedStack(b)
	br := s.Browser(s.User(0))
	if load := br.LoadHomepage(); !load.FullyPainted() {
		b.Fatal("prime failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load := br.LoadHomepage()
		if load.InstantPaints != 5 {
			b.Fatalf("warm load not instant: %+v", load)
		}
	}
}

// --- Figure 3: My Jobs ----------------------------------------------------------

func BenchmarkFigure3_MyJobsTable(b *testing.B) {
	benchRoute(b, subjects.User, "/api/myjobs?range=all")
	_ = sharedStack(b)
}

func BenchmarkFigure3_MyJobsCharts(b *testing.B) {
	sharedStack(b)
	benchRoute(b, subjects.User, "/api/myjobs/charts?range=all")
}

// --- Figure 4a: Job Performance Metrics -----------------------------------------

func BenchmarkFigure4a_JobPerf(b *testing.B) {
	sharedStack(b)
	for _, rng := range []string{"24h", "7d", "all"} {
		benchRange := rng
		b.Run(benchRange, func(b *testing.B) {
			s := sharedStack(b)
			path := "/api/jobperf?range=" + benchRange
			for i := 0; i < b.N; i++ {
				s.ClearServerCache()
				if _, _, err := s.MustGet(subjects.User, path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4b: Cluster Status node sweep ----------------------------------------

func BenchmarkFigure4b_ClusterStatus(b *testing.B) {
	for _, nodes := range []int{128, 512, 2048} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			spec := workload.SmallSpec()
			spec.CPUNodes = nodes - nodes/8 - nodes/32
			spec.HighmemNodes = nodes / 8
			spec.GPUNodes = nodes / 32
			s, err := experiments.NewStack(spec)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			user := s.User(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ClearServerCache()
				if _, _, err := s.MustGet(user, "/api/cluster_status"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4c: Node Overview ------------------------------------------------------

func BenchmarkFigure4c_NodeOverview(b *testing.B) {
	sharedStack(b)
	benchRoute(b, subjects.User, "/api/node/"+subjects.Node)
}

// --- Figure 4d: Job Overview and log tail ------------------------------------------

func BenchmarkFigure4d_JobOverview(b *testing.B) {
	sharedStack(b)
	benchRoute(b, subjects.User, fmt.Sprintf("/api/job/%d", subjects.JobID))
}

func BenchmarkFigure4d_LogTail50kLines(b *testing.B) {
	s := smallStack(b)
	res, err := experiments.Figure4dJobOverview(s)
	if err != nil {
		b.Fatal(err)
	}
	user := s.User(0)
	path := fmt.Sprintf("/api/job/%s/logs", res.JobID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.MustGet(user, path); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §2.4: cache load, TTL, singleflight, privacy -----------------------------------

func BenchmarkSection24_CacheLoadCacheOn(b *testing.B) {
	s := smallStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Section24CacheLoad(s, []int{50}, 2, true)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Rejected > 0 {
			b.Fatalf("cache on: %d requests shed", rows[0].Rejected)
		}
	}
}

func BenchmarkSection24_CacheLoadCacheOff(b *testing.B) {
	s := smallStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Section24CacheLoad(s, []int{50}, 2, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Rejected), "rejected/op")
	}
}

func BenchmarkSection24_Privacy(b *testing.B) {
	s := smallStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Section24Privacy(s, 6)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
	}
}

// --- Ablations -------------------------------------------------------------------------

func BenchmarkAblation_Singleflight(b *testing.B) {
	s := smallStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Section24Singleflight(s, 32)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].CtlRPCs != 1 {
			b.Fatalf("collapsed burst cost %d RPCs", rows[0].CtlRPCs)
		}
	}
}

func BenchmarkAblation_ServerCacheDisabled(b *testing.B) {
	s := smallStack(b)
	user := s.User(0)
	s.Server.Cache().Disabled = true
	defer func() { s.Server.Cache().Disabled = false }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.MustGet(user, "/api/recent_jobs"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_TTLSweep(b *testing.B) {
	for _, ttl := range []time.Duration{time.Second, 30 * time.Second, 5 * time.Minute} {
		ttl := ttl
		b.Run(ttl.String(), func(b *testing.B) {
			s := smallStack(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Section24TTLSweep(s, []time.Duration{ttl}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
