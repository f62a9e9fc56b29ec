//go:build !race

// The backend latency gate reads the wall clock, so it builds without
// -race: the race detector slows instrumented code unevenly, and the JSON
// decode path and the text parser are instrumented differently.
package slurmrest_test

import (
	"slices"
	"testing"
	"time"

	"ooddash/internal/slurmrest"
)

// TestBackendRESTPooledP95: the REST fill path as the dashboard runs it
// (every call fetches and decodes the full body) has a pooled p95 no
// higher than 1.5x the CLI's over slurmrest.BackendOps, at 300 rounds per
// op per side. The daemon renders every request, so each REST request
// runs the full server-side fill. The sides alternate call by call, so
// host noise lands on both. Each op's p50 and p95 on both sides are logged
// beside the pooled ratio, so a failing run names the slow op.
func TestBackendRESTPooledP95(t *testing.T) {
	const rounds = 300
	env, client, window := benchStack(t)
	ops := slurmrest.BackendOps(env.Runner, window)
	for _, op := range ops { // one untimed call per op warms the daemon's and the decoder's first use
		if _, err := op.REST(client); err != nil {
			t.Fatalf("%s/rest: %v", op.Name, err)
		}
	}
	cliLats := make([][]time.Duration, len(ops))
	restLats := make([][]time.Duration, len(ops))
	timed := func(name string, fn func() (any, error), lats *[]time.Duration) {
		t0 := time.Now()
		_, err := fn()
		*lats = append(*lats, time.Since(t0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for round := 0; round < rounds; round++ {
		for i, op := range ops {
			rest := func() (any, error) { return op.REST(client) }
			if round%2 == 0 {
				timed(op.Name+"/cli", op.CLI, &cliLats[i])
				timed(op.Name+"/rest", rest, &restLats[i])
			} else {
				timed(op.Name+"/rest", rest, &restLats[i])
				timed(op.Name+"/cli", op.CLI, &cliLats[i])
			}
		}
	}
	pct := func(lats []time.Duration, p float64) time.Duration {
		lats = slices.Clone(lats)
		slices.Sort(lats)
		return lats[int(p*float64(len(lats)-1))]
	}
	for i, op := range ops {
		t.Logf("%-10s cli p50 %v p95 %v | rest p50 %v p95 %v", op.Name,
			pct(cliLats[i], 0.5), pct(cliLats[i], 0.95), pct(restLats[i], 0.5), pct(restLats[i], 0.95))
	}
	allCLI, allREST := slices.Concat(cliLats...), slices.Concat(restLats...)
	cli, rest := pct(allCLI, 0.95), pct(allREST, 0.95)
	t.Logf("pooled p95 over %d calls per side: cli %v, rest %v (%.2fx)",
		len(allCLI), cli, rest, float64(rest)/float64(cli))
	if float64(rest) > 1.5*float64(cli) {
		t.Fatalf("pooled REST p95 %v is above 1.5x the CLI p95 %v", rest, cli)
	}
}
