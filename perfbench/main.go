// Command perfbench is the dashboard's page-load benchmark. For one named
// workload and seed it builds the simulated stack through the public
// constructors, drives simulated users' browsers (each with its own client
// cache) on the shared SimClock, checks every response, and prints the
// end-to-end metrics; with -trace 1 it records spans around the calls into
// each layer instead and prints the per-layer metrics. See README.md.
//
// Usage:
//
//	perfbench -workload homepage|history|fleet -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// setups is how many times a run builds its stack; setup_s is the median.
const setups = 3

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	procStart := time.Now()
	name := flag.String("workload", "", "workload: homepage, history or fleet")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "wall seconds the timed phase runs")
	traced := flag.Int("trace", 0, "1: record spans and print per-layer metrics")
	flag.Parse()

	var def *workloadDef
	for _, d := range workloads() {
		if d.name == *name {
			def = d
		}
	}
	if def == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	printEnv(def, *seed)
	res, err := run(def, *seed, time.Duration(*seconds)*time.Second, *traced == 1, procStart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: invalid run: %v\n", def.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printEnv records the machine and the input sizes.
func printEnv(def *workloadDef, seed int64) {
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   def.name,
		"seed":       seed,
		"spec": map[string]any{
			"users": def.spec.Users, "groups": def.spec.Groups,
			"nodes":        def.spec.CPUNodes + def.spec.HighmemNodes + def.spec.GPUNodes,
			"history_days": def.spec.HistoryDays, "jobs_per_day": def.spec.JobsPerDay,
			"synthesized_records": def.history, "replicas": def.replicas,
			"client_goroutines": def.workers, "step": def.step.String(),
			"backend": def.backend.Slurmctld + "/" + def.backend.Slurmdbd,
		},
	}
	b, _ := json.Marshal(env) // plain maps of strings and numbers always encode
	fmt.Println("env " + string(b))
}

// run sets up, times and checks one workload.
func run(def *workloadDef, seed int64, d time.Duration, traced bool, procStart time.Time) (*result, error) {
	var s *sim
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		runtime.GC()
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		var err error
		if s, err = newSim(def, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := s.warm(); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer s.close()
	runtime.GC()

	if !traced {
		p := s.runPhase(d)
		if err := s.report("timed", p); err != nil {
			return nil, err
		}
		if err := s.checkOutputs(); err != nil {
			return nil, err
		}
		return &result{
			Correct: true, Attempted: p.tally.pages, Failed: p.tally.failed,
			Metrics: map[string]metric{
				"page_p50_ms":                {p.latency(0.50), "ms"},
				"page_p99_ms":                {p.latency(0.99), "ms"},
				"pages_per_s":                {p.pagesPerSec(), "1/s"},
				"upstream_rpcs_per_user_min": {perUserMinute(p.windowRPCs, len(s.actors), p.windowMinutes), "1/user/min"},
				"live_heap_mb":               {float64(p.windowHeap) / (1 << 20), "MB"},
				"setup_s":                    {median(setupTimes), "s"},
			},
		}, nil
	}

	// Traced: half the time untraced (the overhead baseline and the
	// runtime counters), then half with the benchmark's spans on.
	base := s.runPhase(d / 2)
	if err := s.report("untraced", base); err != nil {
		return nil, err
	}
	s.rec.reset()
	s.rec.on.Store(true)
	p := s.runPhase(d / 2)
	s.rec.on.Store(false)
	if err := s.report("traced", p); err != nil {
		return nil, err
	}
	lt := s.rec.aggregate()
	if lt.orphans > 0 {
		fmt.Printf("traced: %d upstream spans could not be tied to a client lane\n", lt.orphans)
	}
	overhead := 100 * (base.pagesPerSec() - p.pagesPerSec()) / base.pagesPerSec()
	fmt.Printf("tracing overhead: untraced %.1f pages/s, traced %.1f pages/s (%.2f%%)\n",
		base.pagesPerSec(), p.pagesPerSec(), overhead)
	if err := s.checkOutputs(); err != nil {
		return nil, err
	}
	m := s.layerMetrics(base, p, lt)
	m["trace.overhead_pct"] = metric{overhead, "%"}
	return &result{Correct: true, Attempted: base.tally.pages + p.tally.pages,
		Failed: base.tally.failed + p.tally.failed, Metrics: m}, nil
}

// report prints a phase's steady-state evidence and applies the guard.
func (s *sim) report(name string, p *phase) error {
	fifths, err := s.validate(name, p)
	rates := make([]string, len(fifths))
	for i, r := range fifths {
		rates[i] = fmt.Sprintf("%.0f", r)
	}
	fmt.Printf("%s: %d pages (%d latency samples) over %d steps, %.1f simulated min; active jobs %d -> %d; pages/s by fifth [%s]\n",
		name, p.tally.pages, p.samples(), len(p.stepPages), p.simMinutes(),
		p.before.active, p.after.active, strings.Join(rates, " "))
	return err
}

// layerMetrics reduces the traced phase to the per-layer figures. Runtime
// counters come from the untraced phase, so span bookkeeping does not
// count against the program.
func (s *sim) layerMetrics(base, p *phase, lt layerTimes) map[string]metric {
	pages := float64(p.tally.pages)
	b, a := p.before, p.after
	users, minutes := len(s.actors), p.simMinutes()
	us := func(ns, n int64) float64 { return ratio(float64(ns)/1e3, float64(n)) }
	memoCollapse := 0.0 // no fleet, no memo
	if issued := a.issued - b.issued; issued > 0 {
		memoCollapse = 1 - float64(a.calls-b.calls)/float64(issued)
	}
	m := map[string]metric{
		"browser.self_us_per_page":    {us(lt.pageSelf, lt.pages), "us"},
		"browser.fetches_per_page":    {ratio(float64(p.tally.fetches), pages), "count"},
		"browser.instant_paint_ratio": {ratio(float64(p.tally.instant), float64(p.tally.widgets)), "ratio"},
		"browser.not_modified_ratio":  {ratio(float64(p.tally.notModified), float64(p.tally.fetches)), "ratio"},
		"browser.bytes_per_page":      {ratio(float64(p.client.bytes), pages), "B"},

		"core.self_us_per_request": {us(lt.requestSelf, lt.requests), "us"},
		"core.render_hit_ratio": {ratio(float64(a.renderHits-b.renderHits),
			float64(a.renderHits-b.renderHits+a.renderMisses-b.renderMisses)), "ratio"},
		"core.encodes_per_page": {ratio(float64(a.encodes-b.encodes), pages), "count"},
		"core.fill_rejected":    {float64(a.fillRejected - b.fillRejected), "count"},

		"cache.data_hit_ratio": {ratio(float64(a.dataHits-b.dataHits),
			float64(a.dataHits-b.dataHits+a.dataMisses-b.dataMisses)), "ratio"},
		"cache.entries": {float64(s.cacheEntries()), "count"},

		"resilience.retries":        {float64(a.retries - b.retries), "count"},
		"resilience.short_circuits": {float64(a.shortCircuits - b.shortCircuits), "count"},

		"slurmcli.commands_per_page": {ratio(float64(lt.commands), pages), "count"},
		"slurmcli.us_per_command":    {us(lt.commandTotal, lt.commands), "us"},

		"slurmrest.calls_per_page":     {ratio(float64(lt.restCalls), pages), "count"},
		"slurmrest.us_per_call":        {us(lt.restTotal, lt.restCalls), "us"},
		"slurmrest.not_modified_ratio": {ratio(float64(s.rec.restNotModified.Load()), float64(s.rec.restCalls.Load())), "ratio"},

		"slurm.ctld_rpcs_per_user_min": {perUserMinute(dashboardRPCs(rpcDelta(a.ctld, b.ctld)), users, minutes), "1/user/min"},
		"slurm.dbd_rpcs_per_user_min":  {perUserMinute(dashboardRPCs(rpcDelta(a.dbd, b.dbd)), users, minutes), "1/user/min"},
		"slurm.active_jobs_start":      {float64(b.active), "count"},
		"slurm.active_jobs_end":        {float64(a.active), "count"},

		"fleet.peer_served_ratio":   {ratio(float64(p.client.peer), float64(p.client.responses)), "ratio"},
		"fleet.memo_collapse_ratio": {memoCollapse, "ratio"},
		"fleet.owner_changes":       {float64(a.ownerChanges - b.ownerChanges), "count"},
		"fleet.tick_us_per_step":    {us(lt.fleetTickTotal, int64(len(p.stepPages))), "us"},

		"push.refreshes_per_min": {ratio(float64(a.refreshes-b.refreshes), minutes), "1/min"},
		"push.tick_us_per_step":  {us(lt.tickTotal+lt.fleetTickTotal, int64(len(p.stepPages))), "us"},

		"runtime.allocs_per_page":        {ratio(float64(base.after.mallocs-base.before.mallocs), float64(base.tally.pages)), "count"},
		"runtime.gc_cycles_per_1k_pages": {1000 * ratio(float64(base.after.numGC-base.before.numGC), float64(base.tally.pages)), "count"},
	}
	for _, cmd := range []string{"squeue", "sinfo", "scontrol", "sacct", "sreport"} {
		m["slurmcli.commands_per_page."+cmd] = metric{ratio(float64(lt.commandsByName[cmd]), pages), "count"}
	}
	return m
}

// cacheEntries counts data and rendered cache entries over every server.
func (s *sim) cacheEntries() int {
	n := 0
	for _, srv := range s.st.servers {
		n += srv.Cache().Len() + srv.RenderedCache().Len()
	}
	return n
}
