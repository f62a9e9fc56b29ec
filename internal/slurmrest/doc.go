// Package slurmrest is a slurmrestd-style REST surface over the simulated
// Slurm daemons: a versioned JSON API (/slurm/v1/jobs, /nodes, /partitions,
// /accounting, /diag) with bearer-token authentication and per-endpoint and
// per-field permission scopes.
//
// It is the modern alternative to the CLI-shellout data path the paper's
// dashboard uses (the Palmetto API direction: granular permissions and
// caching layered over the Slurm REST API without breaking compatibility).
// The server reads the daemon state structs directly — no text formatting
// or parsing — and the client decodes wire JSON back into the same typed
// rows internal/slurmcli produces, so the dashboard can swap between the
// two backends per source (-backend=cli|rest) and A/B the parse-text vs
// decode-JSON cost on the fill path. The client keeps no state: every call
// decodes the body it got.
//
// Token scopes:
//
//   - staff tokens see every endpoint and every field;
//   - user tokens see jobs and accounting with other users' records
//     redacted (name/comment/workdir hidden, redacted=true), nodes and
//     partitions in full, and get 403 on /diag;
//   - service-account tokens are read-only infrastructure probes: nodes,
//     partitions, and diag only — 403 on jobs and accounting.
//
// Availability failures from the daemons map to 503 + Retry-After so the
// dashboard's resilience layer classifies REST outages exactly like CLI
// ones.
package slurmrest
