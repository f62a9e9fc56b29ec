package slurmcli

import (
	"fmt"
	"math"
	"slices"
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

// FuzzParseSacctOutput: the sacct parser never panics on any input, and a
// record the emulator formats in the typed client's format parses back to
// the same fields. A job with no end time formats End as "Unknown" and
// parses to a zero EndTime, the field the My Jobs fill splits its rows
// into days and unfinished jobs by. Seeds are the emulator's own output
// for pending, running, finished, array and GPU jobs.
func FuzzParseSacctOutput(f *testing.F) {
	out := emulatorSacct(f)
	f.Add(out, "job", "/home/alice", uint16(2), uint32(60), uint8(4), uint8(0), false)
	for i, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f.Add(line, fmt.Sprintf("job-%d", i), "", uint16(i), uint32(i*90), uint8(i), uint8(i%3), i%2 == 0)
	}

	base := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	now := base.Add(48 * time.Hour)
	fields := strings.Split(sacctQueryFields, ",")
	f.Fuzz(func(t *testing.T, out, name, workDir string, cpus uint16, minutes uint32, state, gpus uint8, array bool) {
		_, _ = parseSacctOutput(out)

		if strings.ContainsAny(name+workDir, "|\n") {
			return // sacct's pipe-separated rows cannot carry these
		}
		st := slurm.AllJobStates[int(state)%len(slurm.AllJobStates)]
		tres := slurm.TRES{CPUs: int(cpus), MemMB: int64(cpus) * 512, Nodes: 1, GPUs: int(gpus % 3)}
		run := time.Duration(minutes%(1<<20)) * time.Minute
		j := &slurm.Job{ID: 4242, Name: name, WorkDir: workDir, User: "alice", Account: "lab-a",
			Partition: "gpu", QOS: "normal", State: st, SubmitTime: base, TimeLimit: run + time.Hour,
			ReqTRES: tres, Profile: slurm.UsageProfile{CPUUtilization: 0.5, MemUtilization: 0.4, GPUUtilization: 0.6}}
		if array {
			j.ArrayJobID, j.ArrayTaskID = 4240, 2
		}
		switch {
		case st == slurm.StatePending:
			j.Reason = slurm.ReasonPriority
		case st.Terminal():
			j.StartTime, j.EndTime = base.Add(time.Minute), base.Add(time.Minute+run)
			j.Nodes, j.AllocTRES = []string{"g001"}, tres
		default:
			j.StartTime, j.Nodes, j.AllocTRES = base.Add(time.Minute), []string{"g001"}, tres
		}
		values := make([]string, len(fields))
		for i, name := range fields {
			v, err := sacctField(name, j, now)
			if err != nil {
				t.Fatal(err)
			}
			values[i] = v
		}
		line := strings.Join(values, "|")
		if end := values[11]; (end == "Unknown") != j.EndTime.IsZero() {
			t.Fatalf("End field %q for end time %v", end, j.EndTime)
		}
		rows, err := parseSacctOutput(line + "\n")
		if err != nil || len(rows) != 1 {
			t.Fatalf("emulator row %q: %d rows, %v", line, len(rows), err)
		}
		r := rows[0]
		want := SacctRow{
			RawID: j.ID, JobID: j.DisplayID(), Name: name, User: j.User, Account: j.Account,
			Partition: j.Partition, QOS: j.QOS, State: st, Reason: j.Reason,
			SubmitTime: j.SubmitTime, StartTime: j.StartTime, EndTime: j.EndTime,
			Elapsed: r.Elapsed, TimeLimit: j.TimeLimit, ReqCPUs: tres.CPUs, AllocCPUs: j.AllocTRES.CPUs,
			ReqMemMB: tres.MemMB, AllocTRES: j.AllocTRES, NodeList: values[18], ExitCode: j.ExitCode,
			TotalCPU: r.TotalCPU, GPUUtilPercent: r.GPUUtilPercent, WorkDir: workDir,
		}
		if !j.StartTime.IsZero() {
			want.MaxRSSMB = j.MaxRSSMB()
		}
		if r != want || FormatDuration(r.Elapsed) != FormatDuration(j.Elapsed(now)) ||
			FormatDuration(r.TotalCPU) != FormatDuration(j.CPUTimeUsed(now)) {
			t.Fatalf("emulator row %q parsed to\n%+v\nwant\n%+v", line, r, want)
		}
		if r.EndTime.IsZero() != j.EndTime.IsZero() {
			t.Fatalf("End %q parsed to %v", values[11], r.EndTime)
		}
		if hasUtil := j.AllocTRES.GPUs > 0 && !j.StartTime.IsZero(); hasUtil != (r.GPUUtilPercent >= 0) {
			t.Fatalf("GPU utilization %v for %d GPUs", r.GPUUtilPercent, j.AllocTRES.GPUs)
		}
	})
}

// emulatorSacct returns the emulator's sacct output, in the typed client's
// format, for pending, running, finished, array and GPU jobs.
func emulatorSacct(f *testing.F) string {
	_, cl, clk := newTestRunner(f)
	mustSubmit(f, cl, slurm.SubmitRequest{User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 2048}, Profile: slurm.UsageProfile{ActualDuration: time.Minute}})
	mustSubmit(f, cl, slurm.SubmitRequest{Name: "long run", User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 8192, GPUs: 1}, InteractiveApp: "jupyter", SessionID: "s-1",
		Profile: slurm.UsageProfile{ActualDuration: 5 * time.Hour, GPUUtilization: 0.42}})
	mustSubmit(f, cl, slurm.SubmitRequest{User: "alice", Account: "lab-a", Partition: "cpu", ArraySize: 3,
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, Profile: slurm.UsageProfile{ActualDuration: 2 * time.Minute}})
	mustSubmit(f, cl, slurm.SubmitRequest{User: "alice", Account: "lab-a", Partition: "cpu", Hold: true,
		ReqTRES: slurm.TRES{CPUs: 64, MemMB: 1024}})
	cl.Ctl.Tick()
	clk.Advance(10 * time.Minute)
	cl.Ctl.Tick()
	out, err := runSacct(cl, []string{"-P", "-n", "-X", "-a", "--format", sacctQueryFields})
	if err != nil {
		f.Fatal(err)
	}
	return out
}

// addEmulatorFields seeds f with every value the emulator's sacct output
// holds in the named fields, each with extra.
func addEmulatorFields(f *testing.F, extra int64, names ...string) {
	fields := strings.Split(sacctQueryFields, ",")
	for _, line := range strings.Split(strings.TrimSpace(emulatorSacct(f)), "\n") {
		values := strings.Split(line, "|")
		for i, field := range fields {
			if slices.Contains(names, field) {
				f.Add(values[i], extra)
			}
		}
	}
}

// FuzzParseDuration: ParseDuration never panics, accepts no negative
// duration, and parses every string FormatDuration emits back to the
// whole seconds of its (clamped) input. Seeds are the emulator's Elapsed,
// Timelimit and TotalCPU fields and the wrapping inputs the parser used
// to accept.
func FuzzParseDuration(f *testing.F) {
	addEmulatorFields(f, int64(90*time.Minute), "Elapsed", "Timelimit", "TotalCPU")
	for _, s := range []string{"1-00:-5:00", "1--1:00:00", "106751991167-00:00:00", "UNLIMITED", "05:30"} {
		f.Add(s, int64(math.MaxInt64))
	}
	f.Fuzz(func(t *testing.T, s string, ns int64) {
		if d, err := ParseDuration(s); err == nil && d < 0 {
			t.Fatalf("ParseDuration(%q) = %v, negative", s, d)
		}
		in := time.Duration(ns)
		out := FormatDuration(in)
		got, err := ParseDuration(out)
		if want := max(in, 0).Truncate(time.Second); err != nil || got != want {
			t.Fatalf("ParseDuration(FormatDuration(%d)) = ParseDuration(%q) = %v, %v; want %v", ns, out, got, err, want)
		}
	})
}

// FuzzParseMem: ParseMem never panics, accepts no negative size, and
// parses every string FormatMem emits for a size of 0 or more back to it.
// Seeds are the emulator's ReqMem fields and the wrapping inputs the parser
// used to accept.
func FuzzParseMem(f *testing.F) {
	addEmulatorFields(f, 16*1024, "ReqMem")
	for _, s := range []string{"-5M", "-1.5G", "9223372036854775807G", "9007199254740993T", "1.50G"} {
		f.Add(s, int64(math.MaxInt64))
	}
	f.Fuzz(func(t *testing.T, s string, mb int64) {
		if v, err := ParseMem(s); err == nil && v < 0 {
			t.Fatalf("ParseMem(%q) = %d, negative", s, v)
		}
		if mb < 0 {
			return
		}
		out := FormatMem(mb)
		if got, err := ParseMem(out); err != nil || got != mb {
			t.Fatalf("ParseMem(FormatMem(%d)) = ParseMem(%q) = %d, %v", mb, out, got, err)
		}
	})
}

// FuzzParseTime: ParseTime never panics, returns only UTC instants,
// accepts no string other than the five sentinels that does not format back
// to itself, and parses every string FormatTime emits for a whole second in
// the years 1 to 9999 back to it ("Unknown" for the zero time). Seeds are
// the emulator's Submit, Start and End fields and a fractional second the
// parser used to accept.
func FuzzParseTime(f *testing.F) {
	addEmulatorFields(f, time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC).Unix(), "Submit", "Start", "End")
	f.Add("2026-07-01T08:30:15.5", int64(0))
	first := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	span := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - first
	f.Fuzz(func(t *testing.T, s string, secs int64) {
		got, err := ParseTime(s)
		if err == nil && got.Location() != time.UTC {
			t.Fatalf("ParseTime(%q) = %v, not UTC", s, got)
		}
		switch s {
		case "", "Unknown", "N/A", "None", "NONE":
		default:
			if err == nil && FormatTime(got) != s {
				t.Fatalf("ParseTime(%q) = %v, which formats as %q", s, got, FormatTime(got))
			}
		}
		in := time.Unix(first+(secs%span+span)%span, 0).UTC()
		out := FormatTime(in)
		if got, err := ParseTime(out); err != nil || !got.Equal(in) {
			t.Fatalf("ParseTime(FormatTime(%v)) = ParseTime(%q) = %v, %v", in, out, got, err)
		}
	})
}

// stubRunner answers every command with its own text.
type stubRunner string

func (s stubRunner) Run(string, ...string) (string, error) { return string(s), nil }

// FuzzSreportRollup: the rollup report's parser never panics on any
// output, for bucket rows or for op=bounds, and whatever it accepts,
// printed back in the emulator's format, parses to the same rows and
// bounds. Seeds are the emulator's own rows for every scope and its bounds.
func FuzzSreportRollup(f *testing.F) {
	r, cl, clk := newTestRunner(f)
	start, end := finishRollupJobs(f, cl, clk)
	for _, scope := range slurm.RollupScopes {
		for _, op := range []string{"resolution=3600", "op=bounds"} {
			out, err := r.Run("sreport", "cluster", "Rollup", "-P", "-n", "scope="+scope,
				fmt.Sprintf("start=%d", start), fmt.Sprintf("end=%d", end), op)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(out)
		}
	}
	rowsOpts := RollupOptions{Scope: slurm.RollupScopeTotal, Start: start, End: end, Resolution: slurm.RollupHour}
	boundsOpts := RollupOptions{Scope: slurm.RollupScopeTotal, Op: "bounds"}
	f.Fuzz(func(t *testing.T, out string) {
		if res, err := SreportRollup(stubRunner(out), rowsOpts); err == nil {
			text := formatRollupRows(res.Rows)
			back, err := SreportRollup(stubRunner(text), rowsOpts)
			if err != nil || !slices.Equal(back.Rows, res.Rows) {
				t.Fatalf("rows %+v print as %q, which parses to %+v, %v", res.Rows, text, back.Rows, err)
			}
		}
		if res, err := SreportRollup(stubRunner(out), boundsOpts); err == nil && res.HasBounds {
			text := fmt.Sprintf("%d|%d\n", res.MinEnd, res.MaxEnd)
			back, err := SreportRollup(stubRunner(text), boundsOpts)
			if err != nil || !back.HasBounds || back.MinEnd != res.MinEnd || back.MaxEnd != res.MaxEnd {
				t.Fatalf("bounds %+v print as %q, which parse to %+v, %v", res, text, back, err)
			}
		}
	})
}
