//go:build !race

// The backend latency gate reads the wall clock, so it builds without
// -race: the race detector slows instrumented code unevenly, and the JSON
// decode path and the text parser are instrumented differently.
package slurmrest_test

import (
	"sort"
	"testing"
	"time"

	"ooddash/internal/slurmrest"
)

// TestBackendRESTPooledP95: the REST fill path as the dashboard runs it
// (If-None-Match revalidation on, so unchanged responses come back 304 and
// reuse the decoded envelope) has a pooled p95 no higher than 1.5x the
// CLI's over slurmrest.BackendOps, at 300 rounds per op per side. The daemon
// renders every request, so each REST request still runs the full
// server-side fill. The sides alternate call by call, so host noise lands
// on both.
func TestBackendRESTPooledP95(t *testing.T) {
	const rounds = 300
	env, steady, window := benchStack(t)
	ops := slurmrest.BackendOps(env.Runner, window)
	for _, op := range ops { // the first REST call is a full decode; later ones revalidate
		if _, err := op.REST(steady); err != nil {
			t.Fatalf("%s/rest: %v", op.Name, err)
		}
	}
	var cliLats, restLats []time.Duration
	timed := func(name string, fn func() (any, error), lats *[]time.Duration) {
		t0 := time.Now()
		_, err := fn()
		*lats = append(*lats, time.Since(t0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for round := 0; round < rounds; round++ {
		for _, op := range ops {
			rest := func() (any, error) { return op.REST(steady) }
			if round%2 == 0 {
				timed(op.Name+"/cli", op.CLI, &cliLats)
				timed(op.Name+"/rest", rest, &restLats)
			} else {
				timed(op.Name+"/rest", rest, &restLats)
				timed(op.Name+"/cli", op.CLI, &cliLats)
			}
		}
	}
	p95 := func(lats []time.Duration) time.Duration {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[int(0.95*float64(len(lats)-1))]
	}
	cli, rest := p95(cliLats), p95(restLats)
	t.Logf("pooled p95 over %d calls per side: cli %v, rest %v (%.2fx)",
		len(cliLats), cli, rest, float64(rest)/float64(cli))
	if float64(rest) > 1.5*float64(cli) {
		t.Fatalf("pooled REST p95 %v is above 1.5x the CLI p95 %v", rest, cli)
	}
}
