package slurmcli

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode"

	"ooddash/internal/slurm"
)

// FuzzParseSqueueOutput: the squeue parser never panics on any input, and
// a job the emulator formats in the typed client's format parses back to
// the same fields. Seeds are the emulator's own output for a queue holding
// pending, running and finished jobs.
func FuzzParseSqueueOutput(f *testing.F) {
	_, cl, clk := newTestRunner(f)
	mustSubmit(f, cl, slurm.SubmitRequest{User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 2048}, Profile: slurm.UsageProfile{ActualDuration: time.Minute}})
	mustSubmit(f, cl, slurm.SubmitRequest{Name: "long run", User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 8192, GPUs: 1}, Profile: slurm.UsageProfile{ActualDuration: 5 * time.Hour}})
	mustSubmit(f, cl, slurm.SubmitRequest{User: "alice", Account: "lab-a", Partition: "cpu", Hold: true,
		ReqTRES: slurm.TRES{CPUs: 64, MemMB: 1024}})
	cl.Ctl.Tick()
	clk.Advance(10 * time.Minute)
	cl.Ctl.Tick()
	out, err := runSqueue(cl, []string{"-h", "-o", squeueParseFormat, "-t", "all"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(out, "job", uint16(2), uint32(60), uint8(0))
	for i, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f.Add(line, fmt.Sprintf("job-%d", i), uint16(i), uint32(i*90), uint8(i))
	}

	base := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	now := base.Add(48 * time.Hour)
	f.Fuzz(func(t *testing.T, out, name string, cpus uint16, minutes uint32, state uint8) {
		_, _ = parseSqueueOutput(out)

		if strings.ContainsAny(name, "|\n") {
			return // squeue's pipe-separated rows cannot carry these
		}
		st := slurm.AllJobStates[int(state)%len(slurm.AllJobStates)]
		tres := slurm.TRES{CPUs: int(cpus), MemMB: int64(cpus) * 512, Nodes: 1, GPUs: int(cpus % 3)}
		j := &slurm.Job{ID: 4242, Name: name, User: "alice", Account: "lab-a", Partition: "cpu", QOS: "normal",
			State: st, SubmitTime: base, TimeLimit: time.Duration(minutes%(1<<20)) * time.Minute, ReqTRES: tres}
		if st == slurm.StatePending {
			j.Reason = slurm.ReasonPriority
		} else {
			j.StartTime, j.Nodes, j.AllocTRES = base.Add(time.Minute), []string{"c001", "c002"}, tres
		}
		b, _ := appendSqueueLine(nil, nil, squeueParseFormat, j, now)
		line := string(b)
		got, err := parseSqueueOutput(line + "\n")
		if err != nil || len(got) != 1 {
			t.Fatalf("emulator row %q: %d entries, %v", line, len(got), err)
		}
		e := got[0]
		want := QueueEntry{
			JobID: j.DisplayID(), Name: name, User: j.User, Account: j.Account, Partition: j.Partition,
			QOS: j.QOS, State: st, Reason: j.Reason, SubmitTime: j.SubmitTime, StartTime: j.StartTime,
			Elapsed: e.Elapsed, TimeLimit: j.TimeLimit, Nodes: 1, CPUs: tres.CPUs, MemMB: tres.MemMB,
			GPUsPerNode: tres.GPUs, NodeList: string(appendSqueueValue(nil, 'R', j, now)),
		}
		if e != want || FormatDuration(e.Elapsed) != FormatDuration(j.Elapsed(now)) {
			t.Fatalf("emulator row %q parsed to\n%+v\nwant\n%+v", line, e, want)
		}
	})
}

// FuzzParseAssocs: the scontrol show assoc parser never panics on any
// input, and an association the emulator formats parses back to the same
// fields. Seeds are the emulator's own output for every association.
func FuzzParseAssocs(f *testing.F) {
	_, cl, _ := newTestRunner(f)
	out, err := scontrolShowAssoc(cl, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(out, "lab-a", "alice", uint16(24), uint32(600), uint32(1234), uint32(98765))
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f.Add(line, "lab-b", "", uint16(0), uint32(0), uint32(0), uint32(5))
	}

	f.Fuzz(func(t *testing.T, out, account, user string, grpCPU uint16, gpuMinutes, gpuCents, cpuCents uint32) {
		_, _ = parseAssocs(out)

		if strings.ContainsFunc(account+user, unicode.IsSpace) {
			return // whitespace separates the record's fields
		}
		a := &slurm.Association{
			Account: account, User: user, GrpCPULimit: int(grpCPU),
			GrpGPUHourLimit: float64(gpuMinutes) / 60,
			GPUHoursUsed:    float64(gpuCents) / 100, CPUTimeUsed: float64(cpuCents) / 100,
		}
		line := assocLine("testcluster", a)
		got, err := parseAssocs(line)
		if err != nil || len(got) != 1 {
			t.Fatalf("emulator record %q: %d records, %v", line, len(got), err)
		}
		want := AssocDetail{Cluster: "testcluster", Account: account, User: user, GrpCPULimit: int(grpCPU),
			GPUHourLimit: a.GrpGPUHourLimit, GPUHoursUsed: a.GPUHoursUsed, CPUHoursUsed: a.CPUTimeUsed}
		if got[0] != want {
			t.Fatalf("emulator record %q parsed to\n%+v\nwant\n%+v", line, got[0], want)
		}
	})
}
