package core

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/trace"
)

// The historical widgets (jobperf summary cards, usage charts, the
// year-scale cluster views) read slurmdbd's incremental rollups instead of
// scanning raw accounting rows, so their cost is O(buckets in the window)
// regardless of how many jobs the cluster has ever run. This file holds the
// shared policy: resolution selection, bucket alignment, the cached fetch
// and the one head the rollup-backed routes share. The rollup≡raw reference
// the golden test and the rollup scaling gate compare against lives in test
// code: a Slurm runner double that answers the rollup report by folding raw
// sacct rows (rollup_fold_test.go).

// maxAutoBuckets caps how many points auto resolution selection will put in
// a chart; past it the next coarser resolution takes over. maxExplicitBuckets
// is the hard ceiling for an explicitly requested bucket size — beyond that
// the request is a client error, not a silent downgrade.
const (
	maxAutoBuckets     = 400
	maxExplicitBuckets = 1500
)

// alignDown floors sec to a resolution boundary (toward -inf, so pre-epoch
// times still bucket consistently); alignUp is the matching ceiling.
func alignDown(sec, res int64) int64 {
	f := sec - sec%res
	if sec < 0 && sec%res != 0 {
		f -= res
	}
	return f
}

func alignUp(sec, res int64) int64 { return alignDown(sec+res-1, res) }

// rollupResolutions orders the available resolutions finest-first, with the
// retention window each level is kept for.
var rollupResolutions = []struct {
	secs      int64
	name      string
	retention int64
}{
	{slurm.RollupMinute, "minute", slurm.RollupMinuteRetention},
	{slurm.RollupHour, "hour", slurm.RollupHourRetention},
	{slurm.RollupDay, "day", slurm.RollupDayRetention},
}

// resolutionName names a bucket width; an empty series (no window) has none.
func resolutionName(res int64) string {
	for _, r := range rollupResolutions {
		if r.secs == res {
			return r.name
		}
	}
	return ""
}

// pickResolution chooses the bucket width for a window. bucket "" selects
// automatically: the finest resolution whose aligned window both fits in
// maxAutoBuckets points and is still fully inside that level's retention;
// day resolution is the fallback that always works. An explicit bucket is
// honored but validated — a window with more than maxExplicitBuckets
// buckets, or reaching past the level's retention, is rejected with a 400
// rather than silently served with missing or truncated data.
func pickResolution(now, start, end time.Time, bucket string) (res int64, selection string, err error) {
	buckets := func(res int64) int64 {
		return (alignUp(end.Unix(), res) - alignDown(start.Unix(), res)) / res
	}
	retained := func(res, retention int64) bool {
		return alignDown(start.Unix(), res) >= now.Unix()-retention
	}
	if bucket == "" {
		for _, cand := range rollupResolutions[:2] {
			if buckets(cand.secs) <= maxAutoBuckets && retained(cand.secs, cand.retention) {
				return cand.secs, "auto", nil
			}
		}
		return slurm.RollupDay, "auto", nil
	}
	for _, cand := range rollupResolutions {
		if cand.name != bucket {
			continue
		}
		if n := buckets(cand.secs); n > maxExplicitBuckets {
			return 0, "", fmt.Errorf("%w: range spans %d %s buckets (max %d); use a coarser bucket",
				errBadRequest, n, cand.name, maxExplicitBuckets)
		}
		if !retained(cand.secs, cand.retention) {
			return 0, "", fmt.Errorf("%w: range start is outside the %s rollup retention",
				errBadRequest, cand.name)
		}
		return cand.secs, "explicit", nil
	}
	return 0, "", fmt.Errorf("%w: unknown bucket %q", errBadRequest, bucket)
}

// rollupQuery names one pre-aggregated read: a scope/series, a half-open
// time window, and the requested bucket ("" = auto).
type rollupQuery struct {
	scope, name string
	start, end  time.Time
	bucket      string
}

// rollupSeries is the fetched window: sparse rows at the chosen resolution
// plus the aligned bounds actually queried. PartialStart/PartialEnd flag
// requested edges that fell inside a bucket — the first/last buckets then
// cover more than the request asked for, and are flagged rather than
// silently scaled.
type rollupSeries struct {
	Rows         []slurm.RollupRow
	Res          int64
	Start, End   int64
	PartialStart bool
	PartialEnd   bool
}

// serveRollup is the head every rollup-backed route shares. It parses the
// range (def when the request names none), evaluates the window on the
// data clock, anchors range=all at the scope's earliest terminal end,
// fetches the window and serves shape's body through the rendered layer.
// The route keeps only its own parameters (q's series and bucket) and its
// shape. A scope with no terminal job has no window to fetch: shape then
// gets the zero start and an empty series, and what it builds from them
// is the route's empty-history body.
func (s *Server) serveRollup(w http.ResponseWriter, r *http.Request, user *auth.User, def string, q rollupQuery, shape func(start, end time.Time, sr rollupSeries) any) {
	tr, err := parseTimeRangeDefault(r, def)
	if err != nil {
		writeError(w, err)
		return
	}
	q.start, q.end = tr.window(s.clock.Now())
	var (
		meta fetchMeta
		sr   rollupSeries
	)
	if q.start.IsZero() {
		// The bounds are a cached fill like any other: every all view of
		// the series within one TTL shares one slurmdbd call, and a warm
		// one serves stale through an outage.
		v, bm, err := s.fetchVia(r, srcDBD, "rollup-bounds:"+q.scope+":"+q.name, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
			return s.dbdBk.Rollup(ctx, slurmcli.RollupOptions{Scope: q.scope, Name: q.name, Op: "bounds"})
		})
		if err != nil {
			writeFetchError(w, err)
			return
		}
		meta = bm
		if b := v.(slurmcli.RollupResult); b.HasBounds {
			q.start = time.Unix(b.MinEnd, 0).UTC()
		}
	}
	if !q.start.IsZero() {
		var sm fetchMeta
		if sr, sm, err = s.fetchRollup(r, q); err != nil {
			writeFetchError(w, err)
			return
		}
		meta.absorb(sm)
	}
	s.serveRendered(w, r, meta, user, func() (any, error) {
		return shape(q.start, q.end, sr), nil
	})
}

// fetchRollup is the cached read of one window. The window is aligned
// outward to whole buckets before it becomes the cache key, so requests
// that differ only inside one bucket share an entry.
func (s *Server) fetchRollup(r *http.Request, q rollupQuery) (rollupSeries, fetchMeta, error) {
	now := s.clock.Now()
	res, selection, err := pickResolution(now, q.start, q.end, q.bucket)
	if err != nil {
		return rollupSeries{}, fetchMeta{}, err
	}
	s.obsm.rollupQueries.With(resolutionName(res), selection).Inc()
	alignedStart := alignDown(q.start.Unix(), res)
	alignedEnd := alignUp(q.end.Unix(), res)
	key := "rollup:" + q.scope + ":" + q.name + ":" +
		strconv.FormatInt(alignedStart, 10) + ":" + strconv.FormatInt(alignedEnd, 10) + ":" +
		strconv.FormatInt(res, 10)
	v, meta, err := s.fetchVia(r, srcDBD, key, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
		var sp *trace.Span
		if trace.SpanFromContext(ctx) != nil {
			ctx, sp = trace.StartSpan(ctx, "rollup.query")
			sp.SetAttr("scope", q.scope)
			sp.SetAttr("resolution", resolutionName(res))
			defer sp.End()
		}
		result, err := s.dbdBk.Rollup(ctx, slurmcli.RollupOptions{
			Scope: q.scope, Name: q.name,
			Start: alignedStart, End: alignedEnd, Resolution: res,
		})
		if err != nil {
			return nil, err
		}
		return result.Rows, nil
	})
	if err != nil {
		return rollupSeries{}, fetchMeta{}, err
	}
	rows, _ := v.([]slurm.RollupRow)
	return rollupSeries{
		Rows: rows, Res: res,
		Start: alignedStart, End: alignedEnd,
		PartialStart: q.start.Unix() != alignedStart,
		PartialEnd:   q.end.Unix() != alignedEnd,
	}, meta, nil
}
