package core

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/trace"
)

// The historical widgets (jobperf summary cards, usage charts, the
// year-scale cluster views) read slurmdbd's incremental rollups instead of
// scanning raw accounting rows, so their cost is O(buckets in the window)
// regardless of how many jobs the cluster has ever run. This file holds the
// shared policy: resolution selection, bucket alignment, the cached fetch,
// and the raw-recompute ablation the golden test and the rollup scaling
// gate compare against.

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

func resolutionName(res int64) string {
	for _, r := range rollupResolutions {
		if r.secs == res {
			return r.name
		}
	}
	return strconv.FormatInt(res, 10)
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

// fetchRollup is the cached read every rollup-backed widget goes through.
// The window is aligned outward to whole buckets before it becomes the
// cache key, so requests that differ only inside one bucket share an entry.
// With the ablation on (SetRollupDisabled) the same window is recomputed
// from raw accounting rows under a ":raw"-suffixed key.
func (s *Server) fetchRollup(r *http.Request, q rollupQuery) (rollupSeries, fetchMeta, error) {
	now := s.clock.Now()
	res, selection, err := pickResolution(now, q.start, q.end, q.bucket)
	if err != nil {
		return rollupSeries{}, fetchMeta{}, err
	}
	s.obsm.rollupQueries.With(resolutionName(res), selection).Inc()
	alignedStart := alignDown(q.start.Unix(), res)
	alignedEnd := alignUp(q.end.Unix(), res)
	raw := s.rollupOff.Load()
	key := "rollup:" + q.scope + ":" + q.name + ":" +
		strconv.FormatInt(alignedStart, 10) + ":" + strconv.FormatInt(alignedEnd, 10) + ":" +
		strconv.FormatInt(res, 10)
	if raw {
		key += ":raw"
	}
	v, meta, err := s.fetchVia(r, srcDBD, key, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
		var sp *trace.Span
		if trace.SpanFromContext(ctx) != nil {
			ctx, sp = trace.StartSpan(ctx, "rollup.query")
			sp.SetAttr("scope", q.scope)
			sp.SetAttr("resolution", resolutionName(res))
			if raw {
				sp.SetAttr("ablation", "raw")
			}
			defer sp.End()
		}
		if raw {
			return s.rawRollupRows(ctx, q.scope, q.name, alignedStart, alignedEnd, res)
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
	if raw {
		// The ablated recompute must not ride the rendered cache: its render
		// key equals the rollup path's and cache revs can collide across
		// entries, so materialized rollup bytes could answer a raw request.
		// rev 0 forces encode-per-request — the bytes are identical either way.
		meta.rev = 0
	}
	rows, _ := v.([]slurm.RollupRow)
	return rollupSeries{
		Rows: rows, Res: res,
		Start: alignedStart, End: alignedEnd,
		PartialStart: q.start.Unix() != alignedStart,
		PartialEnd:   q.end.Unix() != alignedEnd,
	}, meta, nil
}

// rollupBounds anchors "all history" ranges at the earliest/latest terminal
// end times the accounting store has seen. Uncached, like the old Sacct
// anchor, so the call still rides the slurmdbd policy. Under the ablation
// the bounds are recomputed by scanning accounting, keeping the two paths
// byte-identical end to end.
func (s *Server) rollupBounds(r *http.Request, scope, name string) (minEnd, maxEnd int64, ok bool, err error) {
	if s.rollupOff.Load() {
		v, rerr := s.runResilient(r, srcDBD, func(ctx context.Context) (any, error) {
			return s.dbdBk.Sacct(ctx, sacctScopeOptions(scope, name, time.Time{}, time.Time{}))
		})
		if rerr != nil {
			return 0, 0, false, rerr
		}
		rows := v.([]slurmcli.SacctRow)
		for i := range rows {
			row := &rows[i]
			if !row.State.Terminal() || row.EndTime.IsZero() {
				continue
			}
			endSec := row.EndTime.Unix()
			if !ok || endSec < minEnd {
				minEnd = endSec
			}
			if !ok || endSec > maxEnd {
				maxEnd = endSec
			}
			ok = true
		}
		return minEnd, maxEnd, ok, nil
	}
	v, rerr := s.runResilient(r, srcDBD, func(ctx context.Context) (any, error) {
		return s.dbdBk.Rollup(ctx, slurmcli.RollupOptions{Scope: scope, Name: name, Op: "bounds"})
	})
	if rerr != nil {
		return 0, 0, false, rerr
	}
	result := v.(slurmcli.RollupResult)
	return result.MinEnd, result.MaxEnd, result.HasBounds, nil
}

// sacctScopeOptions maps a rollup scope onto the accounting query covering
// it. sacct's -S/-E select anything overlapping the window — a superset of
// "ended inside it" — so the fold filters by end time afterwards.
func sacctScopeOptions(scope, name string, start, end time.Time) slurmcli.SacctOptions {
	opts := slurmcli.SacctOptions{Start: start, End: end, AllUsers: true}
	switch scope {
	case slurm.RollupScopeUser:
		if name != "" {
			opts.User, opts.AllUsers = name, false
		}
	case slurm.RollupScopeAccount:
		if name != "" {
			opts.Accounts = []string{name}
		}
	case slurm.RollupScopePartition:
		opts.Partition = name
	}
	return opts
}

// rawRollupRows recomputes a rollup window from raw accounting rows — the
// O(jobs) scan the pipeline replaces, kept as the golden reference: the
// equivalence test and the rollup scaling gate flip SetRollupDisabled and
// assert byte-identical responses. The fold feeds AddSample the same
// wire-truncated inputs the daemon's ingest derives from the job record, so
// the sums match bit for bit.
func (s *Server) rawRollupRows(ctx context.Context, scope, name string, startSec, endSec, res int64) ([]slurm.RollupRow, error) {
	opts := sacctScopeOptions(scope, name, time.Unix(startSec, 0).UTC(), time.Unix(endSec, 0).UTC())
	rows, err := s.dbdBk.Sacct(ctx, opts)
	if err != nil {
		return nil, err
	}
	type cell struct {
		bucket int64
		name   string
	}
	agg := make(map[cell]*slurm.RollupAgg)
	for i := range rows {
		row := &rows[i]
		if !row.State.Terminal() || row.EndTime.IsZero() {
			continue
		}
		endT := row.EndTime.Unix()
		if endT < startSec || endT >= endSec {
			continue
		}
		series := ""
		switch scope {
		case slurm.RollupScopeUser:
			series = row.User
		case slurm.RollupScopeAccount:
			series = row.Account
		case slurm.RollupScopePartition:
			series = row.Partition
		}
		c := cell{alignDown(endT, res), series}
		a := agg[c]
		if a == nil {
			a = &slurm.RollupAgg{}
			agg[c] = a
		}
		started := !row.StartTime.IsZero()
		var waitSec int64
		if started {
			waitSec = row.StartTime.Unix() - row.SubmitTime.Unix()
		}
		a.AddSample(row.State, started,
			int64(row.Elapsed/time.Second), int64(row.TimeLimit/time.Second),
			int64(row.TotalCPU/time.Second), waitSec,
			row.AllocCPUs, row.AllocTRES.GPUs,
			row.MaxRSSMB, row.ReqMemMB, row.GPUUtilPercent)
	}
	out := make([]slurm.RollupRow, 0, len(agg))
	for c, a := range agg {
		out = append(out, slurm.RollupRow{BucketStart: c.bucket, Scope: scope, Name: c.name, RollupAgg: *a})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BucketStart != out[j].BucketStart {
			return out[i].BucketStart < out[j].BucketStart
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// SetRollupDisabled toggles the raw-recompute ablation: when true, every
// rollup-backed widget recomputes its window by scanning raw accounting
// rows instead of reading the pre-aggregated buckets. The rollup scaling
// gate flips this to check that responses stay byte-identical across the
// toggle.
func (s *Server) SetRollupDisabled(off bool) { s.rollupOff.Store(off) }
