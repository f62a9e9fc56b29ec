package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ooddash/internal/newsfeed"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// rollupFoldRunner is the rollup≡raw reference: a Slurm runner double that
// answers `sreport cluster Rollup` (bucket rows and op=bounds) by folding
// the scope's raw sacct rows, the O(jobs) scan the rollup pipeline
// replaces, and hands every other command to the runner it wraps. A server
// on it and a server on the real daemon run one code path, so the golden
// test and the rollup scaling gate compare their bodies byte for byte. The
// fold feeds AddSample the same wire-truncated inputs the daemon's ingest
// derives from the job record, so the sums match bit for bit.
type rollupFoldRunner struct{ inner slurmcli.Runner }

func (f rollupFoldRunner) Run(name string, args ...string) (string, error) {
	return f.RunContext(context.Background(), name, args...)
}

func (f rollupFoldRunner) RunContext(ctx context.Context, name string, args ...string) (string, error) {
	if name != "sreport" || len(args) < 2 || args[1] != "Rollup" {
		return slurmcli.RunWith(ctx, f.inner, name, args...)
	}
	var scope, series, op string
	var start, end, res int64
	for _, arg := range args[2:] {
		k, v, _ := strings.Cut(arg, "=")
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "scope":
			scope = v
		case "name":
			series = v
		case "op":
			op = v
		case "start":
			start = n
		case "end":
			end = n
		case "resolution":
			res = n
		}
	}
	// sacct's -S/-E select anything overlapping the window, a superset of
	// "ended inside it", so the fold filters by end time afterwards.
	opts := slurmcli.SacctOptions{AllUsers: true}
	if op != "bounds" {
		opts.Start, opts.End = time.Unix(start, 0).UTC(), time.Unix(end, 0).UTC()
	}
	switch scope {
	case slurm.RollupScopeUser:
		if series != "" {
			opts.User, opts.AllUsers = series, false
		}
	case slurm.RollupScopeAccount:
		if series != "" {
			opts.Accounts = []string{series}
		}
	case slurm.RollupScopePartition:
		opts.Partition = series
	}
	rows, err := slurmcli.Sacct(slurmcli.Bind(ctx, f.inner), opts)
	if err != nil {
		return "", err
	}

	type cell struct {
		bucket int64
		name   string
	}
	agg := make(map[cell]*slurm.RollupAgg)
	var minEnd, maxEnd int64
	bounded := false
	for i := range rows {
		row := &rows[i]
		if !row.State.Terminal() || row.EndTime.IsZero() {
			continue
		}
		endSec := row.EndTime.Unix()
		if op == "bounds" {
			if !bounded || endSec < minEnd {
				minEnd = endSec
			}
			if !bounded || endSec > maxEnd {
				maxEnd = endSec
			}
			bounded = true
			continue
		}
		if endSec < start || endSec >= end {
			continue
		}
		c := cell{bucket: alignDown(endSec, res)}
		switch scope {
		case slurm.RollupScopeUser:
			c.name = row.User
		case slurm.RollupScopeAccount:
			c.name = row.Account
		case slurm.RollupScopePartition:
			c.name = row.Partition
		}
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
	if op == "bounds" {
		if !bounded {
			return "", nil
		}
		return fmt.Sprintf("%d|%d\n", minEnd, maxEnd), nil
	}

	cells := make([]cell, 0, len(agg))
	for c := range agg {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].bucket != cells[j].bucket {
			return cells[i].bucket < cells[j].bucket
		}
		return cells[i].name < cells[j].name
	})
	var b strings.Builder
	for _, c := range cells {
		a := agg[c]
		fmt.Fprintf(&b, "%d|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			c.bucket, scope, c.name,
			a.Jobs, a.Completed, a.Failed, a.Started,
			a.WallSec, a.CPUSec, a.GPUSec, a.WaitSec,
			a.TimeEffMicro, a.TimeEffN, a.CPUEffMicro, a.CPUEffN,
			a.MemEffMicro, a.MemEffN, a.GPUEffMicro, a.GPUEffN)
	}
	return b.String(), nil
}

// foldServer builds a second server over e's cluster, clock, directory and
// services whose Slurm runner is the rollup fold: the raw-recompute side
// of the rollup≡raw comparisons.
func (e *env) foldServer() *Server {
	e.t.Helper()
	s, err := NewServer(Config{ClusterName: "testcluster"}, Deps{
		Runner:  rollupFoldRunner{slurmcli.NewSimRunner(e.cluster)},
		News:    &newsfeed.Client{BaseURL: e.feedSrv.URL, HTTPClient: e.feedSrv.Client()},
		Storage: e.storage,
		Users:   e.users,
		Logs:    e.logs,
		Clock:   e.clock,
		Events:  e.cluster.Ctl,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(s.Close)
	return s
}
