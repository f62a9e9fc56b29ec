package main

import (
	"fmt"
	"strings"
	"testing"

	"ooddash/internal/core"
)

func TestParseBackend(t *testing.T) {
	for _, c := range []struct {
		in   string
		want core.BackendConfig
	}{
		{"", core.BackendConfig{}},
		{"cli", core.BackendConfig{Slurmctld: "cli", Slurmdbd: "cli"}},
		{" rest ", core.BackendConfig{Slurmctld: "rest", Slurmdbd: "rest"}},
		{"slurmctld=rest,slurmdbd=cli", core.BackendConfig{Slurmctld: "rest", Slurmdbd: "cli"}},
		{"slurmdbd=rest", core.BackendConfig{Slurmdbd: "rest"}},
		{"slurmdbd=rest, slurmctld=cli", core.BackendConfig{Slurmctld: "cli", Slurmdbd: "rest"}},
	} {
		got, err := parseBackend(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseBackend(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"slurmctld=rest,cli", "slurmd=rest", "slurmctld=rest,,"} {
		if got, err := parseBackend(in); err == nil {
			t.Errorf("parseBackend(%q) = %+v, want an error", in, got)
		}
	}
	// An unknown mode is refused at flag parsing, naming it and the valid
	// ones.
	for _, c := range []struct{ in, mode string }{{"slurmctld", "slurmctld"}, {"slurmdbd=restt", "restt"}} {
		_, err := parseBackend(c.in)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.mode)) ||
			!strings.Contains(err.Error(), "cli or rest") {
			t.Errorf("parseBackend(%q) error = %v, want one naming %q, cli and rest", c.in, err, c.mode)
		}
	}
}

// TestCheckFaultBackend: a fault is refused exactly when its command's
// daemon, or either daemon for "*", is served over REST, and the refusal
// names both flags.
func TestCheckFaultBackend(t *testing.T) {
	cli := core.BackendConfig{Slurmctld: core.BackendCLI, Slurmdbd: core.BackendCLI}
	dbdREST := core.BackendConfig{Slurmctld: core.BackendCLI, Slurmdbd: core.BackendREST}
	ctldREST := core.BackendConfig{Slurmctld: core.BackendREST, Slurmdbd: core.BackendCLI}
	for _, c := range []struct {
		cmd     string
		bc      core.BackendConfig
		refused bool
	}{
		{"", dbdREST, false},
		{"sacct", cli, false},
		{"*", cli, false},
		{"*", core.BackendConfig{}, false},
		{"squeue", dbdREST, false},
		{"sacct", dbdREST, true},
		{"sreport", dbdREST, true},
		{"*", dbdREST, true},
		{"sacct", ctldREST, false},
		{"squeue", ctldREST, true},
		{"scontrol", ctldREST, true},
		{"*", ctldREST, true},
	} {
		err := checkFaultBackend(c.cmd, c.bc)
		if (err != nil) != c.refused {
			t.Errorf("checkFaultBackend(%q, %+v) = %v, want refused=%v", c.cmd, c.bc, err, c.refused)
			continue
		}
		if err != nil && (!strings.Contains(err.Error(), "-fault-cmd") || !strings.Contains(err.Error(), "-backend")) {
			t.Errorf("checkFaultBackend(%q, %+v) = %q, want both flags named", c.cmd, c.bc, err)
		}
	}
}
