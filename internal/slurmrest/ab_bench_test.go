// Package-level A/B microbenchmarks behind `make bench-go`: the CLI
// parse-text path vs the REST decode-JSON path over the same accounting
// query, plus the revalidating steady state. TestBackendRESTPooledP95 is
// the gated comparison over the whole query mix; these give
// `go test -bench` visibility into the accounting query alone.
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
// returns a revalidating dashboard-token client and a 24-hour all-users
// accounting window. The daemon renders every request, so each REST call
// runs the full server-side fill, matching the CLI's per-call re-format.
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

// BenchmarkSacctRESTCold decodes the full body every iteration.
func BenchmarkSacctRESTCold(b *testing.B) {
	_, client, opts := benchStack(b)
	client.NoConditional = true
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Sacct(ctx, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSacctREST revalidates: after the first fill every iteration is a
// 304 reusing the decoded envelope.
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
