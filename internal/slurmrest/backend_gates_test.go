package slurmrest_test

import (
	"testing"

	"ooddash/internal/slurmrest"
)

// TestBackendRowsMatchOnTwoColdCalls runs the backend-swap contract over
// workload.SmallSpec with the dashboard token workload.Env.ProvisionREST
// issues: REST rows DeepEqual the CLI parser's on a first cold call and on
// a second one. A faster backend that returns different rows is not an
// optimization.
func TestBackendRowsMatchOnTwoColdCalls(t *testing.T) {
	env, client, window := benchStack(t)
	slurmrest.CheckRowsMatch(t, env.Runner, client, window)
}

// TestRESTTokenScopeProbes runs the scope matrix and the redaction checks
// over workload.SmallSpec with the tokens workload.Env.ProvisionREST
// issues. A shared cache in front of Slurm must never widen what a caller
// can see.
func TestRESTTokenScopeProbes(t *testing.T) {
	env, _, _ := benchStack(t)
	me := env.UserNames[0]
	p := slurmrest.Principals{
		User:         me,
		UserToken:    env.RESTTokens.ByUser[me],
		StaffToken:   env.RESTTokens.Dashboard,
		ServiceToken: env.RESTTokens.Service,
	}
	slurmrest.CheckScopeMatrix(t, env.REST, p)
	slurmrest.CheckUserRedaction(t, env.REST, p)
}
