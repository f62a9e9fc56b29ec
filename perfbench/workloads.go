package main

import (
	"math/rand"
	"time"

	"ooddash/internal/browser"
	"ooddash/internal/core"
	"ooddash/internal/workload"
)

// workloadDef is one traffic mix over one simulated environment.
type workloadDef struct {
	name string
	spec workload.Spec
	// history is how many terminal job records SynthesizeHistory adds.
	history  int
	backend  core.BackendConfig
	replicas int // 0: a single core.Server
	workers  int // client goroutines, each owning a disjoint set of users
	// step is the simulated time between two rounds of page loads; every
	// step also runs job arrivals, Ctl.Tick and the dashboard's background
	// tick.
	step time.Duration
	// warmup is the simulated time driven before timing starts.
	warmup time.Duration
	// window is the simulated span over which upstream RPCs per user-minute
	// are counted: always the first steps of the timed phase, so the figure
	// is the same for every run with one seed, however fast the machine.
	window time.Duration
	// cohortEvery/cohortSize: every cohortEvery of simulated time the next
	// cohortSize users arrive with empty browser caches.
	cohortEvery time.Duration
	cohortSize  int
	// start sets user i of n's behaviour; plan returns the page the user
	// loads now and the simulated wait until their next one. First visits
	// are spread evenly over each user's period, so every window of
	// simulated time holds about the same number of visits for any seed.
	start func(a *actor, i, n int)
	plan  func(a *actor) ([]browser.WidgetRequest, time.Duration)
	// checkPaths are the widget URLs the output check compares.
	checkPaths []string
}

// actor is one simulated user: a browser with its own client cache and a
// seeded schedule.
type actor struct {
	def    *workloadDef
	user   string
	b      *browser.Browser
	rng    *rand.Rand
	next   time.Time // simulated instant of the next page load
	period time.Duration
	every  int // homepage reloads per My Jobs visit (fleet)
	seq    int // pages loaded so far
}

// cluster is the 22-node cluster every workload shares. Without job
// arrays (each adds 4-16 tasks at once, which swings the active-job count
// by ±40% within hours) its queue holds steady at about 60 active jobs
// when jobs arrive at the replayed trace's mean rate.
func cluster(users, groups, days, jobsPerDay int) workload.Spec {
	s := workload.SmallSpec()
	s.Users, s.Groups = users, groups
	s.HistoryDays, s.JobsPerDay = days, jobsPerDay
	s.ArrayFrac = 0
	return s
}

var cliBackend = core.BackendConfig{Slurmctld: core.BackendCLI, Slurmdbd: core.BackendCLI}

// Client-side TTLs are the served pages' data-ttl attributes.
var (
	myJobs7d  = browser.WidgetRequest{Name: "my_jobs", Path: "/api/myjobs?range=7d", TTL: 120 * time.Second}
	myJobs30d = browser.WidgetRequest{Name: "my_jobs", Path: "/api/myjobs?range=30d", TTL: 120 * time.Second}
	analysis  = []browser.WidgetRequest{
		{Name: "my_jobs_charts", Path: "/api/myjobs/charts", TTL: 120 * time.Second},
		{Name: "job_perf", Path: "/api/jobperf", TTL: 120 * time.Second},
		{Name: "usage_cluster", Path: "/api/usage/cluster", TTL: 120 * time.Second},
	}
)

func homepagePaths() []string {
	var out []string
	for _, w := range browser.HomepageWidgets() {
		out = append(out, w.Path)
	}
	return out
}

// jitter returns d scaled by a seeded factor in [0.9, 1.1).
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*rng.Float64()))
}

// spread returns user i of n's offset into period: (i+0.5)/n of it.
func spread(period time.Duration, i, n int) time.Duration {
	return time.Duration((float64(i) + 0.5) / float64(n) * float64(period))
}

// uniform returns a seeded duration in [lo, hi).
func uniform(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

func workloads() []*workloadDef {
	homepage := browser.HomepageWidgets()
	reloader := func(a *actor, i, n int) {
		a.period = uniform(a.rng, 30*time.Second, 120*time.Second)
		a.next = a.next.Add(spread(a.period, i, n))
		a.every = 3 + a.rng.Intn(3)
	}
	return []*workloadDef{
		{
			name:    "homepage",
			spec:    cluster(500, 50, 28, 400),
			backend: cliBackend,
			workers: 1,
			step:    5 * time.Second,
			warmup:  10 * time.Minute,
			window:  60 * time.Minute,
			start:   reloader,
			plan: func(a *actor) ([]browser.WidgetRequest, time.Duration) {
				return homepage, jitter(a.rng, a.period)
			},
			checkPaths: homepagePaths(),
		},
		{
			name:    "history",
			spec:    cluster(100, 40, 7, 400),
			history: 10000,
			backend: cliBackend,
			workers: 1,
			step:    5 * time.Second,
			// Past the data cache's TTL plus stale grace plus one purge, so
			// the cache holds its steady-state entry count when timing starts.
			warmup: 25 * time.Minute,
			window: 30 * time.Minute,
			start: func(a *actor, i, n int) {
				a.period = 10 * time.Minute
				a.next = a.next.Add(spread(a.period, i, n))
			},
			// A visit every ten minutes or so, one page a step: My Jobs at
			// 7d, flipped to 30d and back (that one paints from the client
			// cache), then the charts, then jobperf with usage/cluster. Five
			// page kinds put the median page inside one kind's spread, not
			// on the edge between two.
			plan: func(a *actor) ([]browser.WidgetRequest, time.Duration) {
				const flip = 5 * time.Second
				switch a.seq % 5 {
				case 0, 2:
					return []browser.WidgetRequest{myJobs7d}, flip
				case 1:
					return []browser.WidgetRequest{myJobs30d}, flip
				case 3:
					return analysis[:1], flip
				}
				return analysis[1:], jitter(a.rng, a.period-4*flip)
			},
			checkPaths: []string{myJobs7d.Path, myJobs30d.Path, analysis[0].Path, analysis[1].Path, analysis[2].Path},
		},
		{
			name:        "fleet",
			spec:        cluster(240, 24, 7, 400),
			backend:     core.BackendConfig{Slurmctld: core.BackendCLI, Slurmdbd: core.BackendREST},
			replicas:    3,
			workers:     2,
			step:        5 * time.Second,
			warmup:      10 * time.Minute,
			window:      20 * time.Minute,
			cohortEvery: 5 * time.Minute,
			cohortSize:  20,
			start:       reloader,
			plan: func(a *actor) ([]browser.WidgetRequest, time.Duration) {
				if a.seq%a.every == a.every-1 {
					return []browser.WidgetRequest{myJobs7d}, jitter(a.rng, a.period)
				}
				return homepage, jitter(a.rng, a.period)
			},
			checkPaths: append(homepagePaths(), myJobs7d.Path),
		},
	}
}
