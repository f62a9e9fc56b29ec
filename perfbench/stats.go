package main

import (
	"fmt"
	"math"
	"sort"

	"ooddash/internal/slurm"
)

// percentile returns the q-quantile (0 < q <= 1) of samples by nearest
// rank. Failed pages are recorded as +Inf, so they sort last and count as
// missing every latency limit. samples is sorted in place.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// interval is a half-open [start, end) span of monotonic nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent that none of its children cover.
// Children may overlap one another and may stick out of the parent; only
// their union inside the parent is subtracted. children is sorted in place.
func selfTime(parent interval, children []interval) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	covered := int64(0)
	curStart, curEnd := int64(0), int64(-1)
	flush := func() {
		if curEnd > curStart {
			covered += curEnd - curStart
		}
	}
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e <= s {
			continue
		}
		if s > curEnd {
			flush()
			curStart, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	flush()
	return parent.end - parent.start - covered
}

// rateTolerance bounds how far the page rate over the last two fifths of
// the timed phase may move from that over the first two, as a ratio in
// [1/(1+tol), 1+tol]; a single fifth of a run on a shared 2-vCPU machine
// wanders by ±15%, while a cluster that drains speeds pages up by half.
// queueTolerance bounds how far the active-job count may move over the
// timed phase, as a share of its start value with queueMinJobs as an
// absolute floor: the steady cluster wanders by about ±20% over simulated
// hours, while a queue that grows without bound doubles.
const (
	rateTolerance  = 0.35
	queueTolerance = 0.5
	queueMinJobs   = 20
)

// checkDrift is the steady-state guard: a run whose queue grew or drained,
// or whose page rate trended across the timed phase, measured a moving
// target and is invalid.
func checkDrift(activeStart, activeEnd int, fifths []float64) error {
	allowed := max(float64(queueMinJobs), queueTolerance*float64(activeStart))
	if d := math.Abs(float64(activeEnd - activeStart)); d > allowed {
		return fmt.Errorf("queue drifted from %d to %d active jobs (tolerance %.0f)", activeStart, activeEnd, allowed)
	}
	if len(fifths) != 5 || fifths[0]+fifths[1] <= 0 {
		return fmt.Errorf("page rate per fifth unavailable: %v", fifths)
	}
	first, last := (fifths[0]+fifths[1])/2, (fifths[3]+fifths[4])/2
	if r := last / first; r > 1+rateTolerance || r < 1/(1+rateTolerance) {
		return fmt.Errorf("page rate drifted from %.0f/s over the first two fifths to %.0f/s over the last two (ratio %.3f, tolerance %.2f)",
			first, last, r, rateTolerance)
	}
	return nil
}

// fifth returns the step range [lo, hi) of fifth f of n steps.
func fifth(n, f int) (lo, hi int) { return f * n / 5, (f + 1) * n / 5 }

// fifthRates splits per-step page counts and timed nanoseconds into five
// consecutive groups of steps and returns each group's pages per second.
func fifthRates(pages []int, nanos []int64) []float64 {
	out := make([]float64, 0, 5)
	for f := 0; f < 5; f++ {
		lo, hi := fifth(len(pages), f)
		p, ns := 0, int64(0)
		for i := lo; i < hi; i++ {
			p += pages[i]
			ns += nanos[i]
		}
		rate := 0.0
		if ns > 0 {
			rate = float64(p) / (float64(ns) / 1e9)
		}
		out = append(out, rate)
	}
	return out
}

// dashboardRPCs sums a daemon counter delta, leaving out the job
// submissions the benchmark's own arrival process makes: those are load
// on Slurm, but not load the dashboard caused.
func dashboardRPCs(delta map[slurm.RPCKind]int64) int64 {
	var n int64
	for kind, c := range delta {
		if kind == slurm.RPCSubmit {
			continue
		}
		n += c
	}
	return n
}

// perUserMinute normalizes a count by active users and simulated minutes.
func perUserMinute(count int64, users int, simMinutes float64) float64 {
	if users <= 0 || simMinutes <= 0 {
		return 0
	}
	return float64(count) / float64(users) / simMinutes
}

// rpcDelta returns cur - prev per RPC kind.
func rpcDelta(cur, prev map[slurm.RPCKind]int64) map[slurm.RPCKind]int64 {
	out := make(map[slurm.RPCKind]int64, len(cur))
	for k, v := range cur {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
