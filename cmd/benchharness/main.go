// Command benchharness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded results): Table 1's feature/data-source matrix with measured
// route latencies, the Figure 1 data-flow funnel, the Figure 2 homepage
// load, the Figure 3 My Jobs page, the Figure 4a-d apps, and the §2.4
// caching/privacy claims with their ablations.
//
// Usage:
//
//	benchharness [-small] [-seed 42] [-experiment all|table1|figure1|figure2|
//	              figure3|figure4a|figure4b|figure4c|figure4d|cacheload|
//	              ttlsweep|singleflight|privacy|monitoring|preemption|
//	              insightscov]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"ooddash/internal/experiments"
	"ooddash/internal/workload"
)

func main() {
	var (
		small = flag.Bool("small", false, "use the small workload (fast run)")
		seed  = flag.Int64("seed", 42, "workload generator seed")
		which = flag.String("experiment", "all", "experiment to run")
	)
	flag.Parse()

	spec := workload.DefaultSpec()
	if *small {
		spec = workload.SmallSpec()
	}
	spec.Seed = *seed

	log.Printf("building workload (seed %d)...", spec.Seed)
	start := time.Now()
	stack, err := experiments.NewStack(spec)
	if err != nil {
		log.Fatalf("stack: %v", err)
	}
	defer stack.Close()
	log.Printf("stack ready in %v: %d accounting records, %d live jobs, %d nodes",
		time.Since(start).Round(time.Millisecond),
		stack.Env.Cluster.DBD.JobCount(),
		stack.Env.Cluster.Ctl.ActiveJobCount(),
		len(stack.Env.Cluster.Ctl.Nodes()))

	run := func(name string, fn func(*experiments.Stack) error) {
		if *which != "all" && *which != name {
			return
		}
		fmt.Printf("\n================ %s ================\n", name)
		if err := fn(stack); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("table1", runTable1)
	run("figure1", runFigure1)
	run("figure2", runFigure2)
	run("figure3", runFigure3)
	run("figure4a", runFigure4a)
	if *which == "all" || *which == "figure4b" {
		fmt.Printf("\n================ figure4b ================\n")
		if err := runFigure4b(*small, *seed); err != nil {
			log.Fatalf("figure4b: %v", err)
		}
	}
	run("figure4c", runFigure4c)
	run("figure4d", runFigure4d)
	run("cacheload", runCacheLoad)
	run("ttlsweep", runTTLSweep)
	run("singleflight", runSingleflight)
	run("privacy", runPrivacy)
	run("monitoring", runMonitoring)
	if *which == "all" || *which == "preemption" {
		fmt.Printf("\n================ preemption ================\n")
		if err := runPreemption(); err != nil {
			log.Fatalf("preemption: %v", err)
		}
	}
	run("insightscov", runInsightsCoverage)
}

func table() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

func runTable1(s *experiments.Stack) error {
	fmt.Println("Table 1: dashboard features, data sources, and measured route latency")
	rows, err := experiments.Table1(s)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "Feature\tData Source(s)\tcold\tcached\tspeedup\tbytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.1fx\t%d\n",
			r.Feature, r.DataSource, ms(r.Cold), ms(r.Warm), r.Speedup(), r.Bytes)
	}
	w.Flush()

	verified, err := experiments.VerifyTable1Sources(s)
	if err != nil {
		return err
	}
	fmt.Println("\ndata-source verification (route drives its stated Slurm RPC):")
	w = table()
	for feature, ok := range verified {
		mark := "FAIL"
		if ok {
			mark = "ok"
		}
		fmt.Fprintf(w, "  %s\t%s\n", feature, mark)
	}
	w.Flush()
	return nil
}

func runFigure1(s *experiments.Stack) error {
	fmt.Println("Figure 1: data flow — requests absorbed per layer (50 users x 8 loads)")
	res, err := experiments.Figure1DataFlow(s, 50, 8)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintf(w, "widget views (browser)\t%d\n", res.WidgetViews)
	fmt.Fprintf(w, "  served by client cache (fresh)\t%d\n", res.ClientFresh)
	fmt.Fprintf(w, "  instant stale paint + refresh\t%d\n", res.ClientStale)
	fmt.Fprintf(w, "requests reaching backend\t%d\n", res.NetworkCalls)
	fmt.Fprintf(w, "  served by server cache (hits)\t%d\n", res.ServerHits)
	fmt.Fprintf(w, "  cache misses (compute)\t%d\n", res.ServerMisses)
	fmt.Fprintf(w, "queries reaching slurmctld\t%d\n", res.CtlRPCs)
	fmt.Fprintf(w, "queries reaching slurmdbd\t%d\n", res.DBDRPCs)
	fmt.Fprintf(w, "news API requests\t%d\n", res.NewsRequests)
	w.Flush()
	fmt.Printf("funnel: %d views -> %d backend -> %d slurmctld (%.1f%% of views)\n",
		res.WidgetViews, res.NetworkCalls, res.CtlRPCs,
		100*float64(res.CtlRPCs)/float64(res.WidgetViews))
	return nil
}

func runFigure2(s *experiments.Stack) error {
	fmt.Println("Figure 2: homepage — time to full render across cache regimes")
	res, err := experiments.Figure2Homepage(s)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "regime\tnetwork fetches\tnetwork time\tinstant paints")
	fmt.Fprintf(w, "first visit (all cold)\t%d\t%s\t0\n", res.ColdFetches, ms(res.ColdLatency))
	fmt.Fprintf(w, "new browser, warm server cache\t%d\t%s\t0\n", res.ColdFetches, ms(res.ServerWarmLat))
	fmt.Fprintf(w, "revisit, warm client cache\t%d\t%s\t%d\n", res.WarmFetches, ms(res.WarmLatency), res.WarmInstant)
	w.Flush()
	return nil
}

func runFigure3(s *experiments.Stack) error {
	fmt.Println("Figure 3: My Jobs — table and charts for one group member")
	res, err := experiments.Figure3MyJobs(s)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintf(w, "viewer\t%s\n", res.User)
	fmt.Fprintf(w, "table rows (user + group, 7d)\t%d\n", res.Rows)
	fmt.Fprintf(w, "distinct users in table\t%d\n", res.UsersInTable)
	fmt.Fprintf(w, "rows with efficiency data\t%d\n", res.WithEffData)
	fmt.Fprintf(w, "rows with efficiency warnings\t%d\n", res.WithWarnings)
	fmt.Fprintf(w, "users in GPU-hours chart\t%d\n", res.GPUHourUsers)
	fmt.Fprintf(w, "table latency (cold)\t%s\n", ms(res.TableLatency))
	fmt.Fprintf(w, "charts latency\t%s\n", ms(res.ChartsLatency))
	w.Flush()
	states := make([]string, 0, len(res.States))
	for st, n := range res.States {
		states = append(states, fmt.Sprintf("%s:%d", st, n))
	}
	fmt.Printf("state distribution: %s\n", strings.Join(states, " "))
	return nil
}

func runFigure4a(s *experiments.Stack) error {
	fmt.Println("Figure 4a: Job Performance Metrics across time ranges")
	rows, err := experiments.Figure4aJobPerf(s)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "range\tjobs\tavg wait\tmean duration\ttotal wall\tavg cpu eff\tavg mem eff\tlatency")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%.1f%%\t%.1f%%\t%s\n",
			r.Range, r.TotalJobs,
			(time.Duration(r.AvgWaitSecs) * time.Second).Round(time.Second),
			(time.Duration(r.MeanDurSecs) * time.Second).Round(time.Second),
			(time.Duration(r.TotalWallSec) * time.Second).Round(time.Minute),
			r.AvgCPUEff, r.AvgMemEff, ms(r.Latency))
	}
	w.Flush()
	return nil
}

func runFigure4b(small bool, seed int64) error {
	fmt.Println("Figure 4b: Cluster Status — node-count sweep (cold vs cached route latency)")
	counts := []int{128, 512, 1024, 2048, 4096}
	if small {
		counts = []int{32, 128, 512}
	}
	rows, err := experiments.Figure4bClusterStatus(counts, seed)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "nodes\tcold\tcached\tpayload bytes\tcolor mix")
	for _, r := range rows {
		colors := make([]string, 0, len(r.StateColors))
		for c, n := range r.StateColors {
			colors = append(colors, fmt.Sprintf("%s:%d", c, n))
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%s\n",
			r.Nodes, ms(r.ColdLatency), ms(r.WarmLatency), r.Bytes, strings.Join(colors, " "))
	}
	w.Flush()
	return nil
}

func runFigure4c(s *experiments.Stack) error {
	fmt.Println("Figure 4c: Node Overview — busiest node")
	res, err := experiments.Figure4cNodeOverview(s)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintf(w, "node\t%s (%s)\n", res.Node, res.State)
	fmt.Fprintf(w, "cpu usage\t%.1f%%\n", res.CPUPercent)
	fmt.Fprintf(w, "mem usage\t%.1f%%\n", res.MemPercent)
	fmt.Fprintf(w, "running jobs\t%d\n", res.RunningJobs)
	fmt.Fprintf(w, "detail card latency\t%s\n", ms(res.DetailLat))
	fmt.Fprintf(w, "jobs tab latency\t%s\n", ms(res.JobsLat))
	w.Flush()
	return nil
}

func runFigure4d(s *experiments.Stack) error {
	fmt.Println("Figure 4d: Job Overview — tabs, 50k-line log, 100-task array")
	res, err := experiments.Figure4dJobOverview(s)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintf(w, "job\t%s\n", res.JobID)
	fmt.Fprintf(w, "timeline milestones done\t%d/4\n", res.TimelineDone)
	fmt.Fprintf(w, "overview latency\t%s\n", ms(res.OverviewLat))
	fmt.Fprintf(w, "log lines (total/shown)\t%d/%d (truncated=%v)\n",
		res.LogTotalLines, res.LogShownLines, res.LogTruncated)
	fmt.Fprintf(w, "log tab latency\t%s\n", ms(res.LogLat))
	fmt.Fprintf(w, "array tasks\t%d\n", res.ArrayTasks)
	fmt.Fprintf(w, "array tab latency\t%s\n", ms(res.ArrayLat))
	w.Flush()
	return nil
}

func runCacheLoad(s *experiments.Stack) error {
	fmt.Println("§2.4: slurmctld load and route latency vs concurrent users (5 req/user)")
	users := []int{1, 10, 50, 100, 200}
	on, err := experiments.Section24CacheLoad(s, users, 5, true)
	if err != nil {
		return err
	}
	off, err := experiments.Section24CacheLoad(s, users, 5, false)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "users\tcache\trequests\trejected\tctl RPCs\tRPCs/req\tp50\tp99")
	for _, rows := range [][]experiments.CacheLoadRow{on, off} {
		for _, r := range rows {
			mode := "off"
			if r.CacheOn {
				mode = "on"
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%.3f\t%s\t%s\n",
				r.Users, mode, r.Requests, r.Rejected, r.CtlRPCs, r.RPCsPerReq, ms(r.P50), ms(r.P99))
		}
	}
	w.Flush()
	return nil
}

func runTTLSweep(s *experiments.Stack) error {
	fmt.Println("§2.4 ablation: recent-jobs TTL sweep (10 simulated minutes, request every 5s)")
	rows, err := experiments.Section24TTLSweep(s, []time.Duration{
		time.Second, 5 * time.Second, 15 * time.Second, 30 * time.Second,
		time.Minute, 5 * time.Minute,
	})
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "TTL\tsqueue RPCs\tworst-case staleness")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%d\t%v\n", r.TTL, r.CtlRPCs, r.MaxStaleness)
	}
	w.Flush()
	return nil
}

func runSingleflight(s *experiments.Stack) error {
	fmt.Println("§2.4 ablation: synchronized 64-request burst, miss collapsing on/off")
	rows, err := experiments.Section24Singleflight(s, 64)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "collapsing\tburst\tsinfo RPCs")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%d\t%d\n", r.Collapsing, r.Burst, r.CtlRPCs)
	}
	w.Flush()
	return nil
}

func runPrivacy(s *experiments.Stack) error {
	fmt.Println("§2.4: privacy access matrix (every user probes recent jobs and logs)")
	res, err := experiments.Section24Privacy(s, 12)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintf(w, "probes\t%d\n", res.Probes)
	fmt.Fprintf(w, "owner views allowed\t%d\n", res.OwnerAllowed)
	fmt.Fprintf(w, "group views allowed\t%d\n", res.GroupAllowed)
	fmt.Fprintf(w, "outsider views denied\t%d\n", res.OutsiderDenied)
	fmt.Fprintf(w, "log views allowed (owner)\t%d\n", res.LogOwnerAllowed)
	fmt.Fprintf(w, "log views denied (others)\t%d\n", res.LogOthersDenied)
	fmt.Fprintf(w, "violations\t%d\n", len(res.Violations))
	fmt.Fprintf(w, "mean checked-route latency\t%s\n", ms(res.FilterLatency))
	w.Flush()
	for _, v := range res.Violations {
		fmt.Println("VIOLATION:", v)
	}
	return nil
}

func runMonitoring(s *experiments.Stack) error {
	fmt.Println("§9 extension: real-time monitoring — delta event feed vs squeue polling")
	fmt.Println("(10 users watching their jobs for 10 simulated minutes, poll every 5s)")
	rows, err := experiments.ExtensionEventsVsPolling(s, 10, 10*time.Minute)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "mechanism\tpolls\tctl RPCs\tbytes moved\tupdates delivered")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", r.Mechanism, r.Polls, r.CtlRPCs, r.Bytes, r.Updates)
	}
	w.Flush()
	return nil
}

func runPreemption() error {
	fmt.Println("§9 extension: preemptible standby tier — urgent-job turnaround")
	res, err := experiments.ExtensionPreemption()
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintf(w, "urgent-job wait with preemptible standby\t%v\n", res.WithPreemption)
	fmt.Fprintf(w, "urgent-job wait without (normal jobs)\t%v\n", res.WithoutPreemption)
	fmt.Fprintf(w, "standby jobs requeued\t%d\n", res.RequeuedJobs)
	w.Flush()
	return nil
}

func runInsightsCoverage(s *experiments.Stack) error {
	fmt.Println("§9 extension: insights analyzer coverage across the population")
	cov, err := experiments.ExtensionInsightsCoverage(s)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintf(w, "users analyzed\t%d\n", cov.UsersAnalyzed)
	fmt.Fprintf(w, "users with findings\t%d\n", cov.UsersWithFinding)
	w.Flush()
	fmt.Println("findings by kind:")
	w = table()
	kinds := make([]string, 0, len(cov.FindingsByKind))
	for k := range cov.FindingsByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %s\t%d\n", k, cov.FindingsByKind[k])
	}
	w.Flush()
	return nil
}
