package experiments

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"ooddash/internal/slurm"
)

// --- E9: §2.4 performance claims ------------------------------------------------

// CacheLoadRow is one point of the user-count sweep: how hard slurmctld is
// hit and how fast routes respond, with the server cache on or off.
type CacheLoadRow struct {
	Users    int
	CacheOn  bool
	Requests int
	// Rejected counts 503s: requests the dashboard shed (fill admission or
	// the per-attempt timeout) instead of queueing on slurmctld.
	Rejected   int
	CtlRPCs    int64
	RPCsPerReq float64
	P50        time.Duration
	P99        time.Duration
	Mean       time.Duration
}

// Section24CacheLoad replays a burst of concurrent users hammering the
// squeue-backed recent-jobs route and the sinfo-backed system-status route.
// Expected shape (the paper's §2.4/§3.2 claim): with the cache on, ctl RPCs
// stay ~flat as users grow (bounded by distinct cache keys, not request
// volume); with the cache off they grow linearly with requests, and once
// concurrent fills pass the admission cap the overflow is shed as 503s.
func Section24CacheLoad(s *Stack, userCounts []int, requestsPerUser int, cacheOn bool) ([]CacheLoadRow, error) {
	out := make([]CacheLoadRow, 0, len(userCounts))
	for _, users := range userCounts {
		s.ClearServerCache()
		s.Server.Cache().Disabled = !cacheOn
		stats := s.Env.Cluster.Ctl.Stats()
		before := stats.Count(slurm.RPCSqueue) + stats.Count(slurm.RPCSinfo)

		var (
			mu       sync.Mutex
			lats     durations
			rejected int
			errs     []error
			wg       sync.WaitGroup
		)
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				user := s.User(u)
				local := make(durations, 0, requestsPerUser*2)
				shed := 0
				for i := 0; i < requestsPerUser; i++ {
					for _, path := range []string{"/api/recent_jobs", "/api/system_status"} {
						status, _, lat, err := s.Get(user, path)
						if err == nil && status != http.StatusOK && status != http.StatusServiceUnavailable {
							err = fmt.Errorf("experiments: GET %s as %s: status %d", path, user, status)
						}
						if err != nil {
							mu.Lock()
							errs = append(errs, err)
							mu.Unlock()
							return
						}
						if status == http.StatusServiceUnavailable {
							shed++
						}
						local = append(local, lat)
					}
				}
				mu.Lock()
				lats = append(lats, local...)
				rejected += shed
				mu.Unlock()
			}(u)
		}
		wg.Wait()
		s.Server.Cache().Disabled = false
		if len(errs) > 0 {
			return nil, fmt.Errorf("section24: %v", errs[0])
		}
		after := stats.Count(slurm.RPCSqueue) + stats.Count(slurm.RPCSinfo)
		row := CacheLoadRow{
			Users: users, CacheOn: cacheOn,
			Requests: len(lats),
			Rejected: rejected,
			CtlRPCs:  after - before,
			P50:      lats.percentile(0.50),
			P99:      lats.percentile(0.99),
			Mean:     lats.mean(),
		}
		if row.Requests > 0 {
			row.RPCsPerReq = float64(row.CtlRPCs) / float64(row.Requests)
		}
		out = append(out, row)
	}
	return out, nil
}

// TTLSweepRow is one point of the recent-jobs TTL ablation: the freshness /
// controller-load trade-off the paper tunes per data source.
type TTLSweepRow struct {
	TTL          time.Duration
	CtlRPCs      int64
	MaxStaleness time.Duration // worst-case data age observed
}

// Section24TTLSweep replays a fixed 10-minute browsing pattern (one request
// every 5 simulated seconds) under different recent-jobs TTLs. Expected
// shape: RPCs fall as the TTL grows while worst-case staleness rises toward
// the TTL — the trade the paper describes when it picks ~30s for squeue.
func Section24TTLSweep(s *Stack, ttls []time.Duration) ([]TTLSweepRow, error) {
	user := s.User(0)
	out := make([]TTLSweepRow, 0, len(ttls))
	stats := s.Env.Cluster.Ctl.Stats()
	const (
		step  = 5 * time.Second
		total = 10 * time.Minute
	)
	for _, ttl := range ttls {
		s.ClearServerCache()
		before := stats.Count(slurm.RPCSqueue)
		var lastRefresh time.Time
		var maxStale time.Duration
		for elapsed := time.Duration(0); elapsed < total; elapsed += step {
			rpcBefore := stats.Count(slurm.RPCSqueue)
			if _, err := s.Server.Cache().Fetch("ttl_sweep:recent_jobs", ttl, func() (any, error) {
				out, err := s.Env.Runner.Run("squeue", "-h", "-u", user, "--limit", "8", "-o", "%i|%T")
				return out, err
			}); err != nil {
				return nil, err
			}
			now := s.Env.Clock.Now()
			if stats.Count(slurm.RPCSqueue) > rpcBefore {
				lastRefresh = now
			}
			if age := now.Sub(lastRefresh); age > maxStale {
				maxStale = age
			}
			s.Env.Clock.Advance(step)
			s.Env.Cluster.Ctl.Tick()
		}
		out = append(out, TTLSweepRow{
			TTL: ttl, CtlRPCs: stats.Count(slurm.RPCSqueue) - before,
			MaxStaleness: maxStale,
		})
	}
	return out, nil
}

// SingleflightRow compares a synchronized request burst with and without
// miss collapsing.
type SingleflightRow struct {
	Collapsing bool
	Burst      int
	CtlRPCs    int64
}

// Section24Singleflight fires one synchronized burst of identical cold
// requests (one user's recent-jobs widget, so the burst shares one cache
// key). Expected shape: with collapsing a burst costs one slurmctld query;
// without it, one per request (the stampede the paper's caching guards
// against when many browser tabs open the dashboard at once).
func Section24Singleflight(s *Stack, burst int) ([]SingleflightRow, error) {
	stats := s.Env.Cluster.Ctl.Stats()
	user := s.User(0)
	run := func(collapse bool) (int64, error) {
		s.ClearServerCache()
		before := stats.Count(slurm.RPCSqueue)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		start := make(chan struct{})
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				var err error
				if collapse {
					_, _, err = s.MustGet(user, "/api/recent_jobs")
				} else {
					// Bypass the shared cache entry by querying Slurm
					// directly, as an uncached backend would.
					_, err = s.Env.Runner.Run("squeue", "-h", "-u", user, "-t", "all", "--limit", "8")
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(i)
		}
		close(start)
		wg.Wait()
		return stats.Count(slurm.RPCSqueue) - before, firstErr
	}
	withRPCs, err := run(true)
	if err != nil {
		return nil, err
	}
	withoutRPCs, err := run(false)
	if err != nil {
		return nil, err
	}
	return []SingleflightRow{
		{Collapsing: true, Burst: burst, CtlRPCs: withRPCs},
		{Collapsing: false, Burst: burst, CtlRPCs: withoutRPCs},
	}, nil
}

// --- E10: §2.4 privacy ------------------------------------------------------------

// PrivacyResult is the access-matrix audit: every user probes every other
// user's job and logs; the counts must match the group structure exactly.
type PrivacyResult struct {
	Probes          int
	OwnerAllowed    int
	GroupAllowed    int
	OutsiderDenied  int
	LogOwnerAllowed int
	LogOthersDenied int
	Violations      []string
	FilterLatency   time.Duration // mean latency of a permission-checked route
}

// Section24Privacy audits the privacy boundary with an adversarial access
// matrix. Expected shape: zero violations.
func Section24Privacy(s *Stack, probeUsers int) (PrivacyResult, error) {
	now := s.Env.Clock.Now()
	jobs := s.Env.Cluster.DBD.Jobs(slurm.JobFilter{Limit: probeUsers}, now)
	if len(jobs) == 0 {
		return PrivacyResult{}, fmt.Errorf("privacy: no jobs to probe")
	}
	var res PrivacyResult
	var lats durations
	for _, job := range jobs {
		path := fmt.Sprintf("/api/job/%d", job.ID)
		logPath := path + "/logs"
		for v := 0; v < probeUsers; v++ {
			viewer := s.User(v)
			vu, ok := s.Env.Users.Lookup(viewer)
			if !ok {
				continue
			}
			sameGroup := vu.MemberOf(job.Account)
			status, _, lat, err := s.Get(viewer, path)
			if err != nil {
				return res, err
			}
			lats = append(lats, lat)
			res.Probes++
			switch {
			case viewer == job.User && status == 200:
				res.OwnerAllowed++
			case viewer != job.User && sameGroup && status == 200:
				res.GroupAllowed++
			case !sameGroup && viewer != job.User && status == 403:
				res.OutsiderDenied++
			default:
				res.Violations = append(res.Violations, fmt.Sprintf(
					"job %d viewer %s (group=%v): status %d", job.ID, viewer, sameGroup, status))
			}
			// Logs: strictly owner-only.
			lstatus, _, _, err := s.Get(viewer, logPath)
			if err != nil {
				return res, err
			}
			switch {
			case viewer == job.User && (lstatus == 200 || lstatus == 404):
				// 404 is fine: not every trace job has a written log file.
				res.LogOwnerAllowed++
			case viewer != job.User && lstatus == 403:
				res.LogOthersDenied++
			default:
				res.Violations = append(res.Violations, fmt.Sprintf(
					"logs of job %d viewer %s: status %d", job.ID, viewer, lstatus))
			}
		}
	}
	res.FilterLatency = lats.mean()
	return res, nil
}
