package slurm

import (
	"errors"
	"testing"
	"time"

	"ooddash/internal/clock"
)

func healthTestCluster(t *testing.T) *Cluster {
	t.Helper()
	clock := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cl, err := NewCluster(ClusterConfig{
		Name:  "hc",
		Nodes: []NodeSpec{{NamePrefix: "n", Count: 2, CPUs: 4, MemMB: 8192, Partitions: []string{"cpu"}}},
		Partitions: []PartitionSpec{
			{Name: "cpu", MaxTime: time.Hour, Default: true, Priority: 100},
		},
		Associations: []Association{{Account: "acct"}, {Account: "acct", User: "u"}},
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestControllerHealthGate(t *testing.T) {
	cl := healthTestCluster(t)
	if err := cl.Ctl.Available(); err != nil {
		t.Fatalf("healthy controller unavailable: %v", err)
	}

	cl.Ctl.SetHealth(HealthDown, "drill")
	err := cl.Ctl.Available()
	if err == nil {
		t.Fatal("down controller reported available")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("down error %v does not wrap ErrUnavailable", err)
	}
	if h, reason := cl.Ctl.Health(); h != HealthDown || reason != "drill" {
		t.Fatalf("Health() = %v %q", h, reason)
	}

	cl.Ctl.SetHealth(HealthUp, "")
	if err := cl.Ctl.Available(); err != nil {
		t.Fatalf("recovered controller unavailable: %v", err)
	}
}

func TestDegradedHealthFailsEveryOtherQuery(t *testing.T) {
	cl := healthTestCluster(t)
	cl.DBD.SetHealth(HealthDegraded, "overloaded")
	var failures int
	for i := 0; i < 10; i++ {
		if err := cl.DBD.Available(); err != nil {
			if !errors.Is(err, ErrUnavailable) {
				t.Fatalf("degraded error %v does not wrap ErrUnavailable", err)
			}
			failures++
		}
	}
	if failures != 5 {
		t.Fatalf("degraded mode failed %d of 10 queries, want 5", failures)
	}
	// Resetting health restarts the cadence deterministically.
	cl.DBD.SetHealth(HealthDegraded, "again")
	if err := cl.DBD.Available(); err == nil {
		t.Fatal("first degraded query after reset should fail")
	}
}

func TestHealthStateStrings(t *testing.T) {
	for h, want := range map[DaemonHealth]string{
		HealthUp: "up", HealthDegraded: "degraded", HealthDown: "down", DaemonHealth(9): "unknown",
	} {
		if got := h.String(); got != want {
			t.Fatalf("DaemonHealth(%d).String() = %q, want %q", h, got, want)
		}
	}
}
