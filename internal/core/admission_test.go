package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ooddash/internal/auth"
	"ooddash/internal/slurmcli"
)

// blockingRunner stalls every Slurm command until released, simulating a
// slow upstream so concurrent fills pile up against the admission gate.
// Until hold is set it passes commands straight through, so a test can
// warm shared entries first.
type blockingRunner struct {
	inner   slurmcli.Runner
	hold    atomic.Bool
	entered chan struct{} // one send per held call that reached the upstream
	release chan struct{} // closed to let every stalled call proceed
}

func (r *blockingRunner) Run(name string, args ...string) (string, error) {
	if r.hold.Load() {
		r.entered <- struct{}{}
		<-r.release
	}
	return r.inner.Run(name, args...)
}

// TestDrillLoginRushFillAdmission is the login-rush drill at unit scale: a
// cohort of cold-cache users, each in an account set of their own, opens My
// Jobs at once. History fills are keyed by account set, so singleflight
// cannot collapse them and every request wants its own upstream fill. The
// gate must admit exactly its cap, turn the rest away fast with 503 +
// Retry-After (never a 500, never a queue), and drain back to zero.
//
// Every fill of the cohort's range class reads one shared day-count fill,
// which takes no slot of its own. With the counts warm, each admitted fill
// stalls in its own sacct. With them cold, the first admitted fill stalls
// in the rollup query and the second waits on it, still holding its slot;
// both finish 200 once the upstream is released.
func TestDrillLoginRushFillAdmission(t *testing.T) {
	for _, tc := range []struct {
		name       string
		warmCounts bool
	}{{"warm counts", true}, {"cold counts", false}} {
		t.Run(tc.name, func(t *testing.T) {
			loginRush(t, tc.warmCounts)
		})
	}
}

func loginRush(t *testing.T, warmCounts bool) {
	const fillCap = 2
	br := &blockingRunner{entered: make(chan struct{}, 64), release: make(chan struct{})}
	e := newEnvWith(t, func(c *Config) {
		c.Resilience.MaxConcurrentFills = fillCap
	}, func(inner slurmcli.Runner) slurmcli.Runner {
		br.inner = inner
		return br
	})

	// The rush cohort: cold-cache users, one account set each.
	var users []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("rush%02d", i)
		e.users.AddUser(auth.User{Name: name, Accounts: []string{fmt.Sprintf("rush-lab-%02d", i)}})
		users = append(users, name)
	}
	const rushPath = "/api/myjobs?range=7d"
	if warmCounts {
		// Another account set's view of the same class fills the counts.
		e.wantStatus("alice", rushPath, http.StatusOK)
	}
	br.hold.Store(true)

	// The first cap users get through the gate and stall on the upstream.
	var wg sync.WaitGroup
	admitted := make(chan int, fillCap)
	for i := 0; i < fillCap; i++ {
		user := users[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := e.get(user, rushPath)
			admitted <- status
		}()
	}
	stalled := fillCap
	if !warmCounts {
		stalled = 1 // the rollup query; the other fill waits on it
	}
	for i := 0; i < stalled; i++ {
		<-br.entered // a fill now holds a gate slot inside the runner
	}
	for dbdFillStat(e.server).InFlight < fillCap {
		runtime.Gosched() // the second fill takes its slot, then waits
	}

	// Every further cold user is rejected fast while the gate is full: a
	// retriable 503 with Retry-After >= 1, not a 500 and not a queue slot.
	rejected := 0
	for _, user := range users[fillCap:] {
		status, hdr, body := e.getFull(user, rushPath)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("user %s during saturation: status %d, want 503: %s", user, status, body)
		}
		ra, err := strconv.Atoi(hdr.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("user %s: Retry-After = %q, want integer >= 1", user, hdr.Get("Retry-After"))
		}
		rejected++
	}

	close(br.release)
	wg.Wait()
	close(admitted)
	for status := range admitted {
		if status != http.StatusOK {
			t.Fatalf("admitted fill finished with status %d, want 200", status)
		}
	}

	dbd := dbdFillStat(e.server)
	if dbd.Cap != fillCap {
		t.Fatalf("reported cap = %d, want %d", dbd.Cap, fillCap)
	}
	if dbd.Peak != fillCap {
		t.Fatalf("fill peak = %d, want exactly the cap %d", dbd.Peak, fillCap)
	}
	if dbd.InFlight != 0 {
		t.Fatalf("in-flight fills = %d after drain, want 0", dbd.InFlight)
	}
	if dbd.Rejected != int64(rejected) {
		t.Fatalf("rejected counter = %d, want %d", dbd.Rejected, rejected)
	}
}

// dbdFillStat returns the slurmdbd gate's admission counters.
func dbdFillStat(s *Server) FillStat {
	for _, st := range s.FillStats() {
		if st.Source == srcDBD {
			return st
		}
	}
	return FillStat{}
}

// TestFillGateUnlimited confirms the negative knob disables the cap but the
// gate still tracks in-flight pressure for /metrics.
func TestFillGateUnlimited(t *testing.T) {
	g := &fillGate{source: "x", cap: 0}
	for i := 0; i < 100; i++ {
		if !g.tryAcquire() {
			t.Fatalf("uncapped gate rejected acquire %d", i)
		}
	}
	if got := g.peak.Load(); got != 100 {
		t.Fatalf("peak = %d, want 100", got)
	}
	for i := 0; i < 100; i++ {
		g.release()
	}
	if got := g.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after release, want 0", got)
	}
}

// TestRetryAfterJitter is the satellite regression test: the Retry-After
// written on cold 503s stays >= 1 second, is bounded, and varies across
// calls — a synchronized cohort of rejected clients must not be handed the
// same comeback second.
func TestRetryAfterJitter(t *testing.T) {
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		rec := httptest.NewRecorder()
		writeFetchError(rec, &FillSaturatedError{Source: srcCtld, RetryAfter: 0})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", rec.Code)
		}
		ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After = %q, want an integer", rec.Header().Get("Retry-After"))
		}
		if ra < 1 {
			t.Fatalf("Retry-After = %d, want >= 1", ra)
		}
		if ra > 1+retryAfterJitterSecs {
			t.Fatalf("Retry-After = %d, want <= %d", ra, 1+retryAfterJitterSecs)
		}
		seen[ra] = true
	}
	if len(seen) < 2 {
		t.Fatalf("Retry-After never varied across 200 calls: %v", seen)
	}
}
