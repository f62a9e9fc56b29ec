package slurmrest

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// TestClientReturnsFreshRows pins the stateless client: every call decodes
// the body it got, so a repeated query returns equal rows that are the
// caller's own (rows, node slices and partition maps alike), a data change
// shows on the next call, and the server answers every call in full.
func TestClientReturnsFreshRows(t *testing.T) {
	e := newRestEnv(t, Options{})
	e.seedJobs(t)
	c := NewClient(e.server, tokStaff)
	ctx := context.Background()
	opts := slurmcli.SqueueOptions{AllStates: true}

	first, err := c.Squeue(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Squeue(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("a repeated query returned different rows")
	}

	// Callers own their rows: a write to one call's rows never reaches
	// the next call's.
	second[0].Name = "mutated-by-caller"
	third, err := c.Squeue(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Errorf("rows after caller mutation differ from original")
	}

	// Same for the slices inside node rows.
	nodes, err := c.ShowAllNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes[0].Partitions) == 0 || len(nodes[0].Features) == 0 {
		t.Fatalf("node %s has no partitions or features to mutate", nodes[0].Name)
	}
	parts0, feats0 := slices.Clone(nodes[0].Partitions), slices.Clone(nodes[0].Features)
	nodes[0].Partitions[0] = "mutated-by-caller"
	nodes[0].Features[0] = "mutated-by-caller"
	nodes2, err := c.ShowAllNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(nodes2[0].Partitions, parts0) || !slices.Equal(nodes2[0].Features, feats0) {
		t.Errorf("node %s after caller mutation: partitions %q features %q, want %q %q",
			nodes2[0].Name, nodes2[0].Partitions, nodes2[0].Features, parts0, feats0)
	}

	// And for the maps inside partition rows.
	parts, err := c.Sinfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := parts[0].NodeStates["IDLE"]
	parts[0].NodeStates["IDLE"] = before + 100
	parts2, err := c.Sinfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := parts2[0].NodeStates["IDLE"]; got != before {
		t.Errorf("NodeStates[IDLE] = %d after caller mutation, want %d", got, before)
	}

	// A data change shows on the next call.
	if _, err := e.cluster.Ctl.Submit(slurm.SubmitRequest{
		Name: "fresh", User: "alice", Account: "lab-a", Partition: "cpu", QOS: "normal",
		TimeLimit: time.Hour, ReqTRES: slurm.TRES{Nodes: 1, CPUs: 1, MemMB: 1024},
		Profile: slurm.UsageProfile{CPUUtilization: 0.5, MemUtilization: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	e.cluster.Ctl.Tick()
	fourth, err := c.Squeue(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fourth) != len(first)+1 {
		t.Errorf("after submit: %d rows, want %d", len(fourth), len(first)+1)
	}

	// The client never asked for revalidation: every call was a full 200.
	st := e.server.Stats()
	for ep, calls := range map[string]int64{"jobs": 4, "nodes": 2, "partitions": 2} {
		if got := st.Requests[[2]string{ep, "304"}]; got != 0 {
			t.Errorf("%s 304 count = %d, want 0", ep, got)
		}
		if got := st.Requests[[2]string{ep, "200"}]; got != calls {
			t.Errorf("%s 200 count = %d, want %d", ep, got, calls)
		}
	}
}
