package core

// JobRowFromSacct exposes the My Jobs row conversion to the external test
// package, whose history property test converts a direct sacct the same
// way the server's fill does.
var JobRowFromSacct = jobRowFromSacct
