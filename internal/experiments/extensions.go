package experiments

// Experiments for the §9 extension features built beyond the paper's
// shipped system: real-time job monitoring (delta event feed vs squeue
// polling), preemptible standby capacity, and the insights analyzer.

import (
	"fmt"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/slurm"
)

// MonitoringRow compares one mechanism for watching job state in near
// real time over a fixed session.
type MonitoringRow struct {
	Mechanism string
	Polls     int
	CtlRPCs   int64
	Bytes     int64 // payload bytes moved over the session
	Updates   int   // job state changes actually delivered
}

// ExtensionEventsVsPolling has users watch their jobs for a simulated
// window, polling every 5 seconds, via (a) full squeue polling, the only
// option in the paper's shipped system, and (b) the delta event feed
// (§9 "real-time job monitoring"). Expected shape: both deliver the same
// updates, but polling moves O(queue) bytes per poll while the event feed
// moves ~zero bytes on quiet polls.
func ExtensionEventsVsPolling(s *Stack, users int, window time.Duration) ([]MonitoringRow, error) {
	const step = 5 * time.Second
	stats := s.Env.Cluster.Ctl.Stats()

	run := func(mechanism string) (MonitoringRow, error) {
		row := MonitoringRow{Mechanism: mechanism}
		before := stats.Total()
		since := make(map[string]int64, users)
		lastState := make(map[string]map[string]string, users)
		for u := 0; u < users; u++ {
			name := s.User(u)
			since[name] = s.Env.Cluster.Ctl.LastEventSeq()
			lastState[name] = make(map[string]string)
			if mechanism == "squeue-poll" {
				// Prime the diff baseline so the first measured poll only
				// counts real transitions, matching the event feed's start.
				out, err := s.Env.Runner.Run("squeue", "-h", "-u", name, "-t", "all", "-o", "%i|%T")
				if err != nil {
					return row, err
				}
				for _, line := range splitLines(out) {
					if id, state, ok := cutPipe(line); ok {
						lastState[name][id] = state
					}
				}
			}
		}
		for elapsed := time.Duration(0); elapsed < window; elapsed += step {
			for u := 0; u < users; u++ {
				name := s.User(u)
				row.Polls++
				switch mechanism {
				case "squeue-poll":
					out, err := s.Env.Runner.Run("squeue", "-h", "-u", name, "-t", "all", "-o", "%i|%T")
					if err != nil {
						return row, err
					}
					row.Bytes += int64(len(out))
					// Diff against the previous snapshot to count updates.
					cur := make(map[string]string)
					for _, line := range splitLines(out) {
						id, state, ok := cutPipe(line)
						if !ok {
							continue
						}
						cur[id] = state
						if lastState[name][id] != state {
							row.Updates++
						}
					}
					lastState[name] = cur
				case "event-feed":
					events := s.Env.Cluster.Ctl.EventsSince(since[name], 0)
					for _, e := range events {
						since[name] = e.Seq
						if e.User != name {
							continue
						}
						row.Updates++
						row.Bytes += int64(len(e.JobName) + len(e.User) + len(e.State) + 24)
					}
				}
			}
			s.Env.Clock.Advance(step)
			s.Env.Cluster.Ctl.Tick()
		}
		row.CtlRPCs = stats.Total() - before
		return row, nil
	}

	poll, err := run("squeue-poll")
	if err != nil {
		return nil, err
	}
	feed, err := run("event-feed")
	if err != nil {
		return nil, err
	}
	return []MonitoringRow{poll, feed}, nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func cutPipe(line string) (a, b string, ok bool) {
	for i := 0; i < len(line); i++ {
		if line[i] == '|' {
			return trimSpaces(line[:i]), trimSpaces(line[i+1:]), true
		}
	}
	return "", "", false
}

func trimSpaces(s string) string {
	for len(s) > 0 && s[0] == ' ' {
		s = s[1:]
	}
	for len(s) > 0 && s[len(s)-1] == ' ' {
		s = s[:len(s)-1]
	}
	return s
}

// PreemptionResult compares urgent-job turnaround on a saturated cluster
// with and without a preemptible standby tier.
type PreemptionResult struct {
	WithPreemption    time.Duration // wait until the urgent job started
	WithoutPreemption time.Duration
	RequeuedJobs      int
}

// ExtensionPreemption builds two fully saturated two-node clusters — one
// filled with preemptible standby work, one with normal work — submits an
// urgent job to each, and measures how long it waits. Expected shape: with
// preemption the urgent job starts on the next scheduling pass; without it
// the job waits for the running work to drain.
func ExtensionPreemption() (PreemptionResult, error) {
	build := func(preemptable bool) (*slurm.Cluster, *clock.Sim, error) {
		clk := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
		qosName := "normal"
		if preemptable {
			qosName = "standby"
		}
		cfg := slurm.ClusterConfig{
			Name: "preempt-exp",
			Nodes: []slurm.NodeSpec{
				{NamePrefix: "c", Count: 2, CPUs: 16, MemMB: 32 * 1024, Partitions: []string{"cpu", "standby"}},
			},
			Partitions: []slurm.PartitionSpec{
				{Name: "cpu", MaxTime: 24 * time.Hour, Default: true, Priority: 100},
				{Name: "standby", MaxTime: 4 * time.Hour},
			},
			QOS: []slurm.QOS{
				{Name: "normal"},
				{Name: "standby", Priority: -500, Preemptable: true},
			},
			Associations: []slurm.Association{
				{Account: "lab"}, {Account: "lab", User: "filler"}, {Account: "lab", User: "urgent"},
			},
		}
		cl, err := slurm.NewCluster(cfg, clk)
		if err != nil {
			return nil, nil, err
		}
		part := "cpu"
		if preemptable {
			part = "standby"
		}
		for i := 0; i < 2; i++ {
			if _, err := cl.Ctl.Submit(slurm.SubmitRequest{
				Name: "filler", User: "filler", Account: "lab", Partition: part, QOS: qosName,
				ReqTRES: slurm.TRES{CPUs: 16, MemMB: 1024}, TimeLimit: 4 * time.Hour,
				Profile: slurm.UsageProfile{ActualDuration: 3 * time.Hour,
					CPUUtilization: 1, MemUtilization: 0.5},
			}); err != nil {
				return nil, nil, err
			}
		}
		cl.Ctl.Tick()
		return cl, clk, nil
	}

	measure := func(preemptable bool) (time.Duration, int, error) {
		cl, clock, err := build(preemptable)
		if err != nil {
			return 0, 0, err
		}
		id, err := cl.Ctl.Submit(slurm.SubmitRequest{
			Name: "urgent", User: "urgent", Account: "lab", Partition: "cpu", QOS: "normal",
			ReqTRES: slurm.TRES{CPUs: 16, MemMB: 1024}, TimeLimit: time.Hour,
			Profile: slurm.UsageProfile{ActualDuration: 30 * time.Minute,
				CPUUtilization: 1, MemUtilization: 0.5},
		})
		if err != nil {
			return 0, 0, err
		}
		submitAt := clock.Now()
		// Advance in one-minute steps until the urgent job starts.
		for i := 0; i < 5*60; i++ {
			cl.Ctl.Tick()
			j := cl.Ctl.Job(id)
			if j != nil && j.State == slurm.StateRunning {
				requeued := 0
				for _, e := range cl.Ctl.EventsSince(0, 0) {
					if e.Kind == slurm.EventPreempted {
						requeued++
					}
				}
				return j.StartTime.Sub(submitAt), requeued, nil
			}
			clock.Advance(time.Minute)
		}
		return 0, 0, fmt.Errorf("preemption experiment: urgent job never started")
	}

	withWait, requeued, err := measure(true)
	if err != nil {
		return PreemptionResult{}, err
	}
	withoutWait, _, err := measure(false)
	if err != nil {
		return PreemptionResult{}, err
	}
	return PreemptionResult{
		WithPreemption:    withWait,
		WithoutPreemption: withoutWait,
		RequeuedJobs:      requeued,
	}, nil
}

// InsightsCoverage summarizes what the analyzer found across the whole
// generated population — the extension's population-level validation.
type InsightsCoverage struct {
	UsersAnalyzed    int
	UsersWithFinding int
	FindingsByKind   map[string]int
}

// ExtensionInsightsCoverage runs the insights route for every generated
// user and tallies finding kinds. The synthetic trace deliberately contains
// wasteful interactive sessions and failures, so several kinds must appear.
func ExtensionInsightsCoverage(s *Stack) (InsightsCoverage, error) {
	cov := InsightsCoverage{FindingsByKind: make(map[string]int)}
	for i := range s.Env.UserNames {
		user := s.User(i)
		var resp struct {
			Findings []struct {
				Kind string `json:"kind"`
			} `json:"findings"`
			JobCount int `json:"job_count"`
		}
		if err := getJSON(s, user, "/api/insights?range=all", &resp); err != nil {
			return cov, err
		}
		if resp.JobCount == 0 {
			continue
		}
		cov.UsersAnalyzed++
		if len(resp.Findings) > 0 {
			cov.UsersWithFinding++
		}
		for _, f := range resp.Findings {
			cov.FindingsByKind[f.Kind]++
		}
	}
	return cov, nil
}
