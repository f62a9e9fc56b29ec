package core

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// sacctHook records the -S of every sacct and runs after, once armed,
// right after the next sacct returns.
type sacctHook struct {
	inner slurmcli.Runner
	start atomic.Value // string: the last sacct's -S
	after atomic.Pointer[func()]
}

func (h *sacctHook) Run(name string, args ...string) (string, error) {
	out, err := h.inner.Run(name, args...)
	if name == "sacct" {
		for i, a := range args {
			if a == "-S" && i+1 < len(args) {
				h.start.Store(args[i+1])
			}
		}
		if f := h.after.Swap(nil); f != nil {
			(*f)()
		}
	}
	return out, err
}

// backfillClosedDays records three terminal jobs, one per account of the
// test env, ending on each of the given number of days before now.
func backfillClosedDays(e *env, days int) {
	e.t.Helper()
	now := e.clock.Now()
	var jobs []*slurm.Job
	for d := 1; d <= days; d++ {
		for i, ua := range [][2]string{{"alice", "lab-a"}, {"bob", "lab-a"}, {"carol", "lab-b"}} {
			jobs = append(jobs, closedJob(slurm.JobID(1<<29+d*10+i), ua[0], ua[1],
				now.Add(-time.Duration(d)*24*time.Hour+time.Duration(i)*time.Hour)))
		}
	}
	if n := e.cluster.DBD.Backfill(jobs); n != len(jobs) {
		e.t.Fatalf("backfilled %d of %d jobs", n, len(jobs))
	}
}

// closedJob is a completed accounting record ending at end.
func closedJob(id slurm.JobID, user, account string, end time.Time) *slurm.Job {
	tres := slurm.TRES{CPUs: 2, MemMB: 2048, Nodes: 1}
	j := &slurm.Job{
		ID: id, Name: "closed-" + user, User: user, Account: account, Partition: "cpu", QOS: "normal",
		State: slurm.StateCompleted, SubmitTime: end.Add(-2 * time.Hour), StartTime: end.Add(-time.Hour),
		EndTime: end, TimeLimit: 2 * time.Hour, ReqTRES: tres, AllocTRES: tres,
	}
	j.Profile.CPUUtilization, j.Profile.MemUtilization = 0.5, 0.5
	return j
}

// TestHistoryWarmRefillShipsOnlyLivePart: once a 30d fill is warm, the
// refill after its TTL runs one sacct from yesterday's midnight, and by
// slurmdbd's record counter ships only yesterday's, today's and unfinished
// jobs plus the day-count rollup rows; the closed days carry over.
func TestHistoryWarmRefillShipsOnlyLivePart(t *testing.T) {
	hook := &sacctHook{}
	e := newEnvWith(t, nil, func(r slurmcli.Runner) slurmcli.Runner {
		hook.inner = r
		return hook
	})
	backfillClosedDays(e, 20)
	seedMixedHistory(e)
	e.wantStatus("alice", "/api/myjobs?range=30d", http.StatusOK)
	cold := e.clock.Now().Truncate(time.Second).Add(-30 * 24 * time.Hour)
	if got := hook.start.Load(); got != slurmcli.FormatTime(cold) {
		t.Fatalf("cold fill sacct -S %v, want the window start %s", got, slurmcli.FormatTime(cold))
	}

	e.advance(DefaultTTLs().JobHistory + time.Minute)
	dbd := e.cluster.DBD.Stats()
	records, rpcs := dbd.Records(), dbd.Total()
	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=30d", &resp)
	shipped, calls := dbd.Records()-records, dbd.Total()-rpcs

	asOf := e.clock.Now().Truncate(time.Second)
	yesterday := asOf.Truncate(24 * time.Hour).Add(-24 * time.Hour)
	if got := hook.start.Load(); got != slurmcli.FormatTime(yesterday) {
		t.Fatalf("warm refill sacct -S %v, want yesterday's midnight %s", got, slurmcli.FormatTime(yesterday))
	}
	live, err := slurmcli.Sacct(hook.inner, slurmcli.SacctOptions{
		Accounts: []string{"lab-a"}, AllUsers: true, Start: yesterday, End: asOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := asOf.Add(-30 * 24 * time.Hour).Truncate(24 * time.Hour)
	counts, err := slurmcli.SreportRollup(hook.inner, slurmcli.RollupOptions{
		Scope: slurm.RollupScopeAccount, Start: first.Unix(),
		End: asOf.Truncate(24 * time.Hour).Add(24 * time.Hour).Unix(), Resolution: slurm.RollupDay,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(live) + len(counts.Rows)); shipped != want || calls != 2 {
		t.Fatalf("warm refill: %d records in %d RPCs, want %d (%d live rows + %d day counts) in 2",
			shipped, calls, want, len(live), len(counts.Rows))
	}
	if len(live) >= resp.Total {
		t.Fatalf("fixture: the live part holds %d of %d rows, so nothing was carried over", len(live), resp.Total)
	}
}

// TestHistoryLateRecordWithinOneTTL is the late-record contract. A record
// that reaches slurmdbd for a closed day after the count snapshot a refill
// reads may be missing from that refill, and appears in the first refill
// whose snapshot postdates it, one TTL later.
func TestHistoryLateRecordWithinOneTTL(t *testing.T) {
	e := newEnv(t)
	backfillClosedDays(e, 10)
	seedMixedHistory(e)
	ttl := DefaultTTLs().JobHistory
	e.wantStatus("alice", "/api/myjobs?range=30d", http.StatusOK)
	e.advance(ttl + time.Minute)
	// carol's fill takes the class's count snapshot now; the late record
	// lands right after it, five days after its job ended.
	e.wantStatus("carol", "/api/myjobs?range=30d", http.StatusOK)
	late := closedJob(1<<28, "alice", "lab-a", e.clock.Now().Add(-5*24*time.Hour))
	late.Name = "late-record"
	if e.cluster.DBD.Backfill([]*slurm.Job{late}) != 1 {
		t.Fatal("late record not inserted")
	}
	has := func() bool {
		_, body := e.get("alice", "/api/myjobs?range=30d&offset=0")
		return strings.Contains(string(body), `"late-record"`)
	}
	if has() {
		t.Fatal("premise: the refill read a count snapshot that predates the late record, yet carried it")
	}
	e.advance(ttl)
	if !has() {
		t.Fatal("late record missing from the first refill whose count snapshot postdates it")
	}
}

// TestHistoryStampPrecedesSacct: a closed day is stamped with the count
// snapshot read before its sacct. A late record that lands between the
// sacct and the fill's end is not in the fill, and its day's stamp does
// not count it either, so the next refill fetches the day again.
func TestHistoryStampPrecedesSacct(t *testing.T) {
	hook := &sacctHook{}
	e := newEnvWith(t, nil, func(r slurmcli.Runner) slurmcli.Runner {
		hook.inner = r
		return hook
	})
	backfillClosedDays(e, 10)
	seedMixedHistory(e)
	late := closedJob(1<<28, "alice", "lab-a", e.clock.Now().Add(-5*24*time.Hour))
	late.Name = "late-record"
	insert := func() {
		if e.cluster.DBD.Backfill([]*slurm.Job{late}) != 1 {
			t.Error("late record not inserted")
		}
	}
	hook.after.Store(&insert)
	_, body := e.get("alice", "/api/myjobs?range=30d")
	if strings.Contains(string(body), `"late-record"`) {
		t.Fatal("premise: the record landed after the sacct, yet the fill holds it")
	}
	e.advance(DefaultTTLs().JobHistory + time.Minute)
	if _, body = e.get("alice", "/api/myjobs?range=30d"); !strings.Contains(string(body), `"late-record"`) {
		t.Fatal("late record missing after a full TTL: its day was stamped after the sacct")
	}
}

// TestHistoryRenderSharedByAccountSet: the My Jobs table and charts render
// once per account set. Two members of one set cost one encode each and
// get equal bytes and ETags; a mine=1 table and another account set each
// get a body of their own, and a set's ETag never validates for another
// set's member.
func TestHistoryRenderSharedByAccountSet(t *testing.T) {
	e := newEnv(t)
	e.users.AddUser(auth.User{Name: "dave", Accounts: []string{"lab-b", "lab-a"}})
	seedMixedHistory(e)
	encodes := e.server.RenderEncodes()
	encoded := func() int64 {
		n := e.server.RenderEncodes() - encodes
		encodes = e.server.RenderEncodes()
		return n
	}
	for _, path := range []string{"/api/myjobs?range=7d", "/api/myjobs/charts?range=30d"} {
		_, bh, bob := e.getFull("bob", path)
		_, dh, dave := e.getFull("dave", path)
		if n := encoded(); n != 1 {
			t.Fatalf("%s: two members of one account set cost %d encodes, want 1", path, n)
		}
		if string(bob) != string(dave) || bh.Get("ETag") == "" || bh.Get("ETag") != dh.Get("ETag") {
			t.Fatalf("%s: members of one set got different bodies or ETags", path)
		}
		if bh.Get("Cache-Control") != "private" {
			t.Fatalf("%s: shared render lost Cache-Control: private", path)
		}
	}

	_, mine := e.get("bob", "/api/myjobs?range=7d&mine=1")
	_, daveMine := e.get("dave", "/api/myjobs?range=7d&mine=1")
	if n := encoded(); n != 2 || string(mine) == string(daveMine) {
		t.Fatalf("mine=1: %d encodes (want 2), bodies equal = %v", n, string(mine) == string(daveMine))
	}
	_, bh, bob := e.getFull("bob", "/api/myjobs?range=7d")
	_, _, alice := e.getFull("alice", "/api/myjobs?range=7d")
	if n := encoded(); n != 1 || string(alice) == string(bob) {
		t.Fatalf("another account set: %d encodes (want 1), bodies equal = %v", n, string(alice) == string(bob))
	}
	req, _ := http.NewRequest("GET", e.web.URL+"/api/myjobs?range=7d", nil)
	req.Header.Set(auth.UserHeader, "alice")
	req.Header.Set("If-None-Match", bh.Get("ETag"))
	resp, err := e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		t.Fatal("bob's account set's ETag validated for alice")
	}
}

// outputRecorder keeps every sacct output the runner returned.
type outputRecorder struct {
	inner slurmcli.Runner
	mu    sync.Mutex
	outs  []string
}

func (o *outputRecorder) Run(name string, args ...string) (string, error) {
	out, err := o.inner.Run(name, args...)
	if name == "sacct" {
		o.mu.Lock()
		o.outs = append(o.outs, out)
		o.mu.Unlock()
	}
	return out, err
}

// TestHistoryRowsPinNoCommandOutput: the CLI parser's fields are
// substrings of the whole sacct output, so a kept row that held one would
// keep the output alive as long as its day is carried over. No string of a
// fill's rows, cold or carried over, points into any sacct output, and
// each fill keeps one copy of each user, account and state.
func TestHistoryRowsPinNoCommandOutput(t *testing.T) {
	rec := &outputRecorder{}
	e := newEnvWith(t, nil, func(r slurmcli.Runner) slurmcli.Runner {
		rec.inner = r
		return rec
	})
	backfillClosedDays(e, 5)
	seedMixedHistory(e)
	alice, _ := e.users.Lookup("alice")
	key := "myjobs:" + shareKey(alice) + ":30d"
	inOutput := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for _, out := range rec.outs {
			if lo := uintptr(unsafe.Pointer(unsafe.StringData(out))); p >= lo && p < lo+uintptr(len(out)) {
				return true
			}
		}
		return false
	}
	for _, step := range []string{"cold", "carried over"} {
		e.wantStatus("alice", "/api/myjobs?range=30d", http.StatusOK)
		v, ok := e.server.cache.Retained(key)
		if !ok {
			t.Fatalf("%s: no fill under %q", step, key)
		}
		h := v.(*jobHistory)
		copies := make(map[string]*byte)
		for _, row := range h.rows {
			for _, s := range []string{row.user, row.account, row.state} {
				if inOutput(s) {
					t.Fatalf("%s: row %d_%d holds %q from a sacct output", step, row.job, row.task, s)
				}
				if p, ok := copies[s]; step == "cold" && ok && p != unsafe.StringData(s) {
					t.Fatalf("cold: two copies of %q in one fill", s)
				}
				copies[s] = unsafe.StringData(s)
			}
		}
		if len(h.rows) == 0 || len(rec.outs) == 0 {
			t.Fatalf("%s: fixture: %d rows from %d sacct outputs", step, len(h.rows), len(rec.outs))
		}
		e.advance(DefaultTTLs().JobHistory + time.Minute)
	}
}
