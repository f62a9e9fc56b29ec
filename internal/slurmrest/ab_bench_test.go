// Package-level A/B microbenchmarks behind `make bench-go`: the CLI
// parse-text path vs the REST decode-JSON path over the same accounting
// query. TestBackendRESTPooledP95 is the gated comparison over the whole
// query mix; these give `go test -bench` visibility into the accounting
// query alone.
package slurmrest_test

import (
	"context"
	"testing"
	"time"

	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/workload"
)

// benchStack builds workload.SmallSpec with its REST daemon provisioned and
// returns a dashboard-token client and a 24-hour all-users accounting
// window. The daemon renders every request and the client decodes every
// body, so each REST call runs the full server-side fill and a cold
// decode, matching the CLI's per-call re-format and parse.
func benchStack(tb testing.TB) (*workload.Env, *slurmrest.Client, slurmcli.SacctOptions) {
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		tb.Fatal(err)
	}
	if err := env.ProvisionREST(slurmrest.Options{}); err != nil {
		tb.Fatal(err)
	}
	now := env.Clock.Now()
	return env, slurmrest.NewClient(env.REST, env.RESTTokens.Dashboard),
		slurmcli.SacctOptions{AllUsers: true, Start: now.Add(-24 * time.Hour), End: now}
}

func BenchmarkSacctCLI(b *testing.B) {
	env, _, opts := benchStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slurmcli.Sacct(env.Runner, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSacctREST fetches and decodes the full body every iteration, as
// every REST call does.
func BenchmarkSacctREST(b *testing.B) {
	_, client, opts := benchStack(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Sacct(ctx, opts); err != nil {
			b.Fatal(err)
		}
	}
}
