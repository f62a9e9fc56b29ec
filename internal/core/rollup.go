package core

import (
	"context"
	"fmt"
	"net/http"
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

// rollupQuery names one pre-aggregated read: a scope and series, and the
// requested bucket ("" = auto).
type rollupQuery struct {
	scope, name string
	bucket      string
}

// rollupSeries is one rollup fill: the window evaluated at the fill's
// instant, and the sparse rows at the chosen resolution over that window
// aligned outward to whole buckets. From is zero when range=all finds no
// terminal job in the scope; Res is then zero and there are no rows.
// PartialStart/PartialEnd flag window edges that fell inside a bucket — the
// first/last buckets then cover more than the window asked for, and are
// flagged rather than silently scaled. err records an explicit bucket the
// window cannot be served at, which for range=all only the fill can tell.
type rollupSeries struct {
	From, To     time.Time
	Rows         []slurm.RollupRow
	Res          int64
	PartialStart bool
	PartialEnd   bool
	err          error
}

// serveRollup is the head every rollup-backed route shares. It parses the
// range (def when the request names none), takes the one fill per scope,
// series, range and bucket, and serves shape's body through the rendered
// layer. The route keeps only its own parameters (q's series and bucket)
// and its shape.
//
// A bad explicit bucket is a 400 that costs no upstream call: decided here
// when the window is known before the fill, which is every range but all;
// an all window starts at the scope's earliest terminal end, which only
// the fill reads, so here only the bucket's name is checked and the fill
// records the pick's outcome.
func (s *Server) serveRollup(w http.ResponseWriter, r *http.Request, user *auth.User, def string, q rollupQuery, shape func(sr *rollupSeries) any) {
	tr, err := parseTimeRangeDefault(r, def)
	if err != nil {
		writeError(w, err)
		return
	}
	now := s.historyAsOf()
	start, end := tr.window(now)
	if start.IsZero() {
		// An empty window checks the bucket's name alone.
		start = end
	}
	if _, _, err := pickResolution(now, start, end, q.bucket); err != nil {
		writeError(w, err)
		return
	}
	key := "rollup:" + q.scope + ":" + q.name + ":" + tr.key() + ":" + q.bucket
	v, meta, err := s.fetchVia(r, srcDBD, key, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
		return s.fillRollup(ctx, q, tr)
	})
	if err != nil {
		writeFetchError(w, err)
		return
	}
	sr := v.(*rollupSeries)
	if sr.err != nil {
		writeError(w, sr.err)
		return
	}
	s.serveRendered(w, r, meta, user, func() (any, error) {
		return shape(sr), nil
	})
}

// fillRollup is one rollup fill. It reads the clock once and evaluates the
// window from that reading, as history fills do, so the key names a range
// class and never an instant: a view refills once per TTL whatever its
// bucket, and a warm one serves stale through an outage. range=all first
// reads the scope's earliest terminal end, inside the same fill. Then it
// picks the resolution, aligns the window outward to whole buckets and
// queries.
func (s *Server) fillRollup(ctx context.Context, q rollupQuery, tr timeRange) (*rollupSeries, error) {
	now := s.historyAsOf()
	sr := &rollupSeries{}
	sr.From, sr.To = tr.window(now)
	if sr.From.IsZero() {
		b, err := s.dbdBk.Rollup(ctx, slurmcli.RollupOptions{Scope: q.scope, Name: q.name, Op: "bounds"})
		if err != nil {
			return nil, err
		}
		if !b.HasBounds {
			return sr, nil
		}
		sr.From = time.Unix(b.MinEnd, 0).UTC()
	}
	res, selection, err := pickResolution(now, sr.From, sr.To, q.bucket)
	if err != nil {
		sr.err = err
		return sr, nil
	}
	s.obsm.rollupQueries.With(resolutionName(res), selection).Inc()
	start, end := alignDown(sr.From.Unix(), res), alignUp(sr.To.Unix(), res)
	sr.Res = res
	sr.PartialStart, sr.PartialEnd = sr.From.Unix() != start, sr.To.Unix() != end
	var sp *trace.Span
	if trace.SpanFromContext(ctx) != nil {
		ctx, sp = trace.StartSpan(ctx, "rollup.query")
		sp.SetAttr("scope", q.scope)
		sp.SetAttr("resolution", resolutionName(res))
		defer sp.End()
	}
	result, err := s.dbdBk.Rollup(ctx, slurmcli.RollupOptions{
		Scope: q.scope, Name: q.name,
		Start: start, End: end, Resolution: res,
	})
	if err != nil {
		return nil, err
	}
	sr.Rows = result.Rows
	return sr, nil
}
