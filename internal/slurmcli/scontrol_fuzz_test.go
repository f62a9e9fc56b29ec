package slurmcli_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"ooddash/internal/clock"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/workload"
)

// outputRunner answers every command with the same output.
type outputRunner string

func (o outputRunner) Run(string, ...string) (string, error) { return string(o), nil }

// FuzzParseScontrolBlocks: the scontrol block splitter, and the node, job
// and reservation readers over it, never panic on any output; and a node
// and a job the emulator formats from daemon state built out of fuzzed
// values parse back to the daemon's values. Seeds are the emulator's
// scontrol show node, job and reservation output over workload.SmallSpec.
func FuzzParseScontrolBlocks(f *testing.F) {
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		f.Fatal(err)
	}
	now := env.Clock.Now()
	if _, err := env.Cluster.Ctl.ScheduleMaintenance("firmware", now.Add(time.Hour), now.Add(3*time.Hour),
		nil, "firmware update on every node"); err != nil {
		f.Fatal(err)
	}
	outs := []string{}
	for _, args := range [][]string{{"show", "node"}, {"show", "reservation"}} {
		out, err := env.Runner.Run("scontrol", args...)
		if err != nil {
			f.Fatal(err)
		}
		outs = append(outs, out)
	}
	// One job of each live state (a held one added for PENDING), an
	// interactive one, and an accounting record the controller no longer
	// holds.
	live := env.Cluster.Ctl.Jobs(slurm.LiveJobFilter{})
	if _, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{Name: "held", User: live[0].User, Account: live[0].Account,
		Partition: live[0].Partition, QOS: live[0].QOS, TimeLimit: time.Hour, Hold: true,
		ReqTRES: slurm.TRES{Nodes: 1, CPUs: 1, MemMB: 1024}}); err != nil {
		f.Fatal(err)
	}
	picked := map[string]bool{}
	jobs := append(env.Cluster.Ctl.Jobs(slurm.LiveJobFilter{}), env.Cluster.DBD.Jobs(slurm.JobFilter{Limit: 1}, now)...)
	for _, j := range jobs {
		kind := string(j.State)
		if j.InteractiveApp != "" {
			kind = "app"
		}
		if picked[kind] {
			continue
		}
		picked[kind] = true
		out, err := env.Runner.Run("scontrol", "show", "job", strconv.FormatInt(int64(j.ID), 10))
		if err != nil {
			f.Fatal(err)
		}
		outs = append(outs, out)
	}
	for i, out := range outs {
		f.Add(out, "job-"+strconv.Itoa(i), "maintenance: fan", uint16(4*i), uint32(4096*i), uint8(i), uint32(30*i), i%2 == 0)
	}

	f.Fuzz(func(t *testing.T, out, name, text string, cpus uint16, memMB uint32, gpus uint8, minutes uint32, app bool) {
		slurmcli.ParseScontrolBlocks(out)
		_, _ = slurmcli.ShowAllNodes(outputRunner(out))
		_, _ = slurmcli.ShowJob(outputRunner(out), 1)
		_, _ = slurmcli.ShowReservations(outputRunner(out))

		// Whitespace separates key=value pairs, and commas and colons
		// separate list and gres parts, so a name holds none of them; a
		// free-text field takes the rest of its line, trimmed.
		if name == "" || strings.ContainsFunc(name, unicode.IsSpace) || strings.ContainsAny(name, ",:") ||
			strings.Contains(text, "\n") || strings.TrimSpace(text) != text {
			return
		}
		checkScontrolRoundTrip(t, name, text, cpus, memMB, gpus, minutes, app)
	})
}

// checkScontrolRoundTrip builds a one-node cluster and one job (held,
// running or finished) from the fuzzed values and requires scontrol show node and job to parse back to
// the daemon's state: names, paths, features, GRES and free text as set,
// times and durations to the second, CPU load to two decimals.
func checkScontrolRoundTrip(t *testing.T, name, text string, cpus uint16, memMB uint32, gpus uint8, minutes uint32, app bool) {
	clk := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	nodeCPUs, nodeMem, nodeGPUs := 2+int(cpus%127), 1024+int64(memMB%(1<<20)), int(gpus%5)
	cl, err := slurm.NewCluster(slurm.ClusterConfig{
		Name: "fuzz",
		Nodes: []slurm.NodeSpec{{NamePrefix: "n", Count: 1, CPUs: nodeCPUs, MemMB: nodeMem, GPUs: nodeGPUs,
			GPUType: name, Features: []string{name}, Partitions: []string{"p"}, OS: text, Arch: "x86_64"}},
		Partitions:   []slurm.PartitionSpec{{Name: "p", MaxTime: 48 * time.Hour, Default: true}},
		QOS:          []slurm.QOS{{Name: "normal"}},
		Associations: []slurm.Association{{Account: "lab"}, {Account: "lab", User: "alice"}},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	req := slurm.SubmitRequest{Name: name, User: "alice", Account: "lab", Partition: "p", QOS: "normal",
		TimeLimit: time.Duration(1+minutes%(24*60)) * time.Minute, Constraint: name, Hold: cpus%3 == 0,
		WorkDir: "/scratch/" + name, StdoutPath: "/scratch/" + name + ".out", StderrPath: "/scratch/" + name + ".err",
		ReqTRES: slurm.TRES{Nodes: 1, CPUs: 1 + int(cpus)%nodeCPUs, MemMB: int64(memMB) % nodeMem, GPUs: int(gpus) % (nodeGPUs + 1)},
		Profile: slurm.UsageProfile{CPUUtilization: 0.6, MemUtilization: 0.5, GPUUtilization: 0.4,
			ActualDuration: time.Duration(minutes%120) * time.Minute}}
	if app {
		req.InteractiveApp, req.SessionID = text, "s-1"
	}
	id, err := cl.Ctl.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	clk.Advance(30*time.Minute + 7*time.Second)
	cl.Ctl.Tick()
	node := cl.Ctl.Nodes()[0].Name
	if text != "" {
		if err := cl.Ctl.DrainNode(node, text); err != nil {
			t.Fatal(err)
		}
	}
	n := cl.Ctl.Node(node)
	r := slurmcli.NewSimRunner(cl)

	nodes, err := slurmcli.ShowAllNodes(r)
	if err != nil || len(nodes) != 1 {
		t.Fatalf("scontrol show node: %d nodes, %v", len(nodes), err)
	}
	load, _ := strconv.ParseFloat(strconv.FormatFloat(n.CPULoad, 'f', 2, 64), 64)
	want := slurmcli.NodeDetail{Name: n.Name, Arch: n.Arch, OS: n.OS, State: n.EffectiveState(),
		Partitions: n.Partitions, Features: n.Features, CPUTotal: n.CPUs, CPUAlloc: n.Alloc.CPUs, CPULoad: load,
		MemMB: n.MemMB, AllocMemMB: n.Alloc.MemMB, BootTime: toSecond(n.BootTime), LastBusy: toSecond(n.LastBusy),
		Reason: n.StateReason}
	if n.GPUs > 0 {
		want.GPUTotal, want.GPUAlloc, want.GPUType = n.GPUs, n.Alloc.GPUs, n.GPUType
	}
	if !reflect.DeepEqual(*nodes[0], want) {
		t.Fatalf("node parsed to\n%+v\nwant\n%+v", *nodes[0], want)
	}

	j := cl.Ctl.Job(id)
	if j == nil {
		j = cl.DBD.Job(id)
	}
	got, err := slurmcli.ShowJob(r, id)
	if err != nil {
		t.Fatalf("scontrol show job %d: %v", id, err)
	}
	wantJob := slurmcli.JobDetail{ID: j.ID, Name: j.Name, User: j.User, Account: j.Account, QOS: j.QOS,
		State: j.State, Reason: j.Reason, ExitCode: j.ExitCode, SubmitTime: toSecond(j.SubmitTime),
		EligibleTime: toSecond(j.EligibleTime), StartTime: toSecond(j.StartTime), EndTime: toSecond(j.EndTime),
		RunTime: j.Elapsed(cl.Ctl.Now()).Truncate(time.Second), TimeLimit: j.TimeLimit, Partition: j.Partition,
		Priority: j.Priority, NodeList: slurm.NodeNameRange(j.Nodes), NumNodes: j.ReqTRES.Nodes,
		NumCPUs: j.ReqTRES.CPUs, ReqTRES: j.ReqTRES, AllocTRES: j.AllocTRES, MemMB: j.ReqTRES.MemMB,
		Constraint: j.Constraint, WorkDir: j.WorkDir, StdoutPath: j.StdoutPath, StderrPath: j.StderrPath}
	if j.InteractiveApp != "" {
		wantJob.Comment = "ood:app=" + j.InteractiveApp + ";session=" + j.SessionID
	}
	if *got != wantJob {
		t.Fatalf("job parsed to\n%+v\nwant\n%+v", *got, wantJob)
	}
}

// toSecond is t as scontrol prints it: whole seconds, UTC; the zero time
// stays zero ("Unknown").
func toSecond(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	return time.Unix(t.Unix(), 0).UTC()
}
