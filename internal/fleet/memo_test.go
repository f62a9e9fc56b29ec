package fleet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ooddash/internal/clock"
)

type countingRunner struct {
	calls atomic.Int64
	fail  atomic.Bool
}

func (c *countingRunner) Run(name string, args ...string) (string, error) {
	c.calls.Add(1)
	if c.fail.Load() {
		return "", errors.New("upstream down")
	}
	return "out:" + name, nil
}

func TestMemoCollapsesIdenticalCommandsWithinTTL(t *testing.T) {
	clock := clock.NewSim(time.Unix(1_700_000_000, 0))
	base := &countingRunner{}
	m := newMemoRunner(clock, 10*time.Second, base)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := m.Run("squeue", "-A", "grp01")
			if err != nil || out != "out:squeue" {
				t.Errorf("Run = %q, %v", out, err)
			}
		}()
	}
	wg.Wait()
	if got := base.calls.Load(); got != 1 {
		t.Fatalf("upstream calls = %d, want 1 (collapsed)", got)
	}
	misses, hits := m.counts()
	if misses["slurmctld"] != 1 || hits["slurmctld"] != 7 {
		t.Fatalf("counts = misses %v hits %v, want 1 miss / 7 hits", misses, hits)
	}

	// A different command is its own entry.
	if _, err := m.Run("squeue", "-A", "grp02"); err != nil {
		t.Fatal(err)
	}
	if got := base.calls.Load(); got != 2 {
		t.Fatalf("upstream calls = %d, want 2 after distinct command", got)
	}

	// Past the TTL the memo must refetch — it can never mask a refresh.
	clock.Advance(11 * time.Second)
	if _, err := m.Run("squeue", "-A", "grp01"); err != nil {
		t.Fatal(err)
	}
	if got := base.calls.Load(); got != 3 {
		t.Fatalf("upstream calls = %d, want 3 after TTL expiry", got)
	}
}

func TestMemoNeverCachesErrors(t *testing.T) {
	clock := clock.NewSim(time.Unix(1_700_000_000, 0))
	base := &countingRunner{}
	m := newMemoRunner(clock, 10*time.Second, base)

	base.fail.Store(true)
	if _, err := m.Run("sinfo", "--json"); err == nil {
		t.Fatal("want error from failing upstream")
	}
	base.fail.Store(false)
	out, err := m.Run("sinfo", "--json")
	if err != nil || out != "out:sinfo" {
		t.Fatalf("retry after error = %q, %v, want success", out, err)
	}
	if got := base.calls.Load(); got != 2 {
		t.Fatalf("upstream calls = %d, want 2 (error not cached)", got)
	}
}
