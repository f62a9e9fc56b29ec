package core

import (
	"testing"

	"ooddash/internal/slurmcli"
)

// JobRowFromSacct exposes the My Jobs row conversion to the external test
// package, whose history property test converts a direct sacct the same
// way the server's fill does.
var JobRowFromSacct = jobRowFromSacct

// RecentJobFromEntry, AccountUsageFrom, NodeOverviewFrom and WriteXLSX
// expose the live-view building blocks to the external test package, whose
// live-view property test renders direct queries the same way the server
// renders its views.
var (
	RecentJobFromEntry = recentJobFromEntry
	AccountUsageFrom   = accountUsageFrom
	NodeOverviewFrom   = nodeOverviewFrom
	WriteXLSX          = writeXLSX
)

// NewRollupFoldRunner exposes the rollup≡raw reference runner to the
// external test package: a server built on it answers every rollup read by
// folding raw sacct rows.
func NewRollupFoldRunner(inner slurmcli.Runner) slurmcli.Runner { return rollupFoldRunner{inner} }

// MixedHistoryPair serves the seedMixedHistory fixture from two servers over
// one cluster: the first reads slurmdbd's rollups, the second the fold.
func MixedHistoryPair(t *testing.T) (rollup, fold *Server) {
	e := newEnv(t)
	seedMixedHistory(e)
	return e.server, e.foldServer()
}
