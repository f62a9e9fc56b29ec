package core

// JobRowFromSacct exposes the My Jobs row conversion to the external test
// package, whose history property test converts a direct sacct the same
// way the server's fill does.
var JobRowFromSacct = jobRowFromSacct

// RecentJobFromEntry, AccountUsageFrom and WriteXLSX expose the live-view
// building blocks to the external test package, whose live-view property
// test renders direct queries the same way the server renders its views.
var (
	RecentJobFromEntry = recentJobFromEntry
	AccountUsageFrom   = accountUsageFrom
	WriteXLSX          = writeXLSX
)
