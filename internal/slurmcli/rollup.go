package slurmcli

import (
	"fmt"
	"strconv"
	"strings"

	"ooddash/internal/slurm"
)

// The rollup report: `sreport cluster Rollup` exposes slurmdbd's
// pre-aggregated time buckets over the command-line transport, so the
// dashboard's historical widgets cost O(buckets) regardless of how many jobs
// accounting holds. Times and durations are whole unix seconds and the
// efficiency sums are fixed-point integers — nothing on this wire can lose
// precision, which the rollup≡raw golden test depends on.

// RollupOptions selects one rollup read.
type RollupOptions struct {
	// Scope is one of slurm.RollupScopes; Name narrows it to a single
	// user/account/partition series ("" returns every series in the scope).
	Scope string
	Name  string
	// Start and End bound the half-open window [Start, End) in unix seconds,
	// aligned to Resolution.
	Start int64
	End   int64
	// Resolution is the bucket width in seconds: slurm.RollupMinute/Hour/Day.
	Resolution int64
	// Op "" (or "query") returns bucket rows; "bounds" returns only the
	// earliest/latest terminal end times recorded for the scope, to anchor
	// "all history" ranges.
	Op string
}

// RollupResult carries either bucket rows (query) or range bounds (bounds).
type RollupResult struct {
	Rows []slurm.RollupRow
	// Bounds op: earliest and latest terminal job end times, unix seconds.
	// HasBounds is false when the scope has no history at all.
	MinEnd    int64
	MaxEnd    int64
	HasBounds bool
}

// rollupFieldCount is the per-row field count on the CLI wire.
const rollupFieldCount = 19

// runSreportRollup serves `sreport cluster Rollup -P -n start=<unix>
// end=<unix> resolution=<secs> scope=<scope> [name=<name>] [op=bounds]`.
// Output is always parsable2-style rows (the flags are accepted for
// symmetry with the other reports).
func runSreportRollup(cl *slurm.Cluster, args []string) (string, error) {
	var (
		opts   RollupOptions
		gotRes bool
		err    error
	)
	parseInt := func(arg, prefix string) (int64, error) {
		v, err := strconv.ParseInt(strings.TrimPrefix(arg, prefix), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("slurmcli: sreport rollup: bad %s%q", prefix, strings.TrimPrefix(arg, prefix))
		}
		return v, nil
	}
	for _, arg := range args {
		switch {
		case strings.HasPrefix(arg, "start="):
			if opts.Start, err = parseInt(arg, "start="); err != nil {
				return "", err
			}
		case strings.HasPrefix(arg, "end="):
			if opts.End, err = parseInt(arg, "end="); err != nil {
				return "", err
			}
		case strings.HasPrefix(arg, "resolution="):
			if opts.Resolution, err = parseInt(arg, "resolution="); err != nil {
				return "", err
			}
			gotRes = true
		case strings.HasPrefix(arg, "scope="):
			opts.Scope = strings.TrimPrefix(arg, "scope=")
		case strings.HasPrefix(arg, "name="):
			opts.Name = strings.TrimPrefix(arg, "name=")
		case strings.HasPrefix(arg, "op="):
			opts.Op = strings.TrimPrefix(arg, "op=")
		case arg == "-P" || arg == "--parsable2" || arg == "-n" || arg == "--noheader":
		default:
			return "", fmt.Errorf("slurmcli: sreport rollup: unknown option %q", arg)
		}
	}
	validScope := false
	for _, s := range slurm.RollupScopes {
		if opts.Scope == s {
			validScope = true
			break
		}
	}
	if !validScope {
		return "", fmt.Errorf("slurmcli: sreport rollup: bad scope %q", opts.Scope)
	}

	if opts.Op == "bounds" {
		minEnd, maxEnd, ok := cl.DBD.RollupBounds(opts.Scope, opts.Name)
		if !ok {
			return "", nil
		}
		return fmt.Sprintf("%d|%d\n", minEnd, maxEnd), nil
	}
	if opts.Op != "" && opts.Op != "query" {
		return "", fmt.Errorf("slurmcli: sreport rollup: unknown op %q", opts.Op)
	}
	if !gotRes || (opts.Resolution != slurm.RollupMinute &&
		opts.Resolution != slurm.RollupHour && opts.Resolution != slurm.RollupDay) {
		return "", fmt.Errorf("slurmcli: sreport rollup: bad resolution %d", opts.Resolution)
	}

	return formatRollupRows(cl.DBD.RollupQuery(opts.Scope, opts.Name, opts.Start, opts.End, opts.Resolution)), nil
}

// formatRollupRows prints rows the way the report does, one parsable row
// of rollupFieldCount fields per bucket and series.
func formatRollupRows(rows []slurm.RollupRow) string {
	var b strings.Builder
	b.Grow(len(rows) * 96)
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(&b, "%d|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			r.BucketStart, r.Scope, r.Name,
			r.Jobs, r.Completed, r.Failed, r.Started,
			r.WallSec, r.CPUSec, r.GPUSec, r.WaitSec,
			r.TimeEffMicro, r.TimeEffN, r.CPUEffMicro, r.CPUEffN,
			r.MemEffMicro, r.MemEffN, r.GPUEffMicro, r.GPUEffN)
	}
	return b.String()
}

// SreportRollup runs one rollup read over the CLI transport and parses the
// result.
func SreportRollup(r Runner, opts RollupOptions) (RollupResult, error) {
	args := []string{"cluster", "Rollup", "-P", "-n",
		"scope=" + opts.Scope,
	}
	if opts.Name != "" {
		args = append(args, "name="+opts.Name)
	}
	if opts.Op == "bounds" {
		args = append(args, "op=bounds")
	} else {
		args = append(args,
			"start="+strconv.FormatInt(opts.Start, 10),
			"end="+strconv.FormatInt(opts.End, 10),
			"resolution="+strconv.FormatInt(opts.Resolution, 10))
	}
	out, err := r.Run("sreport", args...)
	if err != nil {
		return RollupResult{}, err
	}
	var res RollupResult
	if opts.Op == "bounds" {
		var f [2]string
		err := forEachLine(out, func(line string) error {
			if isBlank(line) {
				return nil
			}
			if n := splitInto(line, '|', f[:]); n != len(f) {
				return fmt.Errorf("slurmcli: rollup bounds row has %d fields: %q", n, line)
			}
			var err error
			if res.MinEnd, err = strconv.ParseInt(f[0], 10, 64); err != nil {
				return fmt.Errorf("slurmcli: bad rollup bound %q", f[0])
			}
			if res.MaxEnd, err = strconv.ParseInt(f[1], 10, 64); err != nil {
				return fmt.Errorf("slurmcli: bad rollup bound %q", f[1])
			}
			res.HasBounds = true
			return nil
		})
		return res, err
	}
	res.Rows = make([]slurm.RollupRow, 0, countLines(out))
	var f [rollupFieldCount]string
	err = forEachLine(out, func(line string) error {
		if isBlank(line) {
			return nil
		}
		if n := splitInto(line, '|', f[:]); n != len(f) {
			return fmt.Errorf("slurmcli: rollup row has %d fields: %q", n, line)
		}
		var row slurm.RollupRow
		row.Scope, row.Name = f[1], f[2]
		ints := [...]*int64{
			&row.BucketStart, nil, nil,
			&row.Jobs, &row.Completed, &row.Failed, &row.Started,
			&row.WallSec, &row.CPUSec, &row.GPUSec, &row.WaitSec,
			&row.TimeEffMicro, &row.TimeEffN, &row.CPUEffMicro, &row.CPUEffN,
			&row.MemEffMicro, &row.MemEffN, &row.GPUEffMicro, &row.GPUEffN,
		}
		for i, dst := range ints {
			if dst == nil {
				continue
			}
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				return fmt.Errorf("slurmcli: bad rollup field %d %q", i, f[i])
			}
			*dst = v
		}
		res.Rows = append(res.Rows, row)
		return nil
	})
	if err != nil {
		return RollupResult{}, err
	}
	return res, nil
}
