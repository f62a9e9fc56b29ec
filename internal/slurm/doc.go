// Package slurm simulates the Slurm workload manager: a controller daemon
// (slurmctld) owning the live queue, nodes, partitions, QOS, and scheduling,
// paired with an accounting database daemon (slurmdbd) holding job history
// and association usage.
//
// The simulator exists to reproduce "A Modular, Responsive, and Accessible
// HPC Dashboard Built upon Open OnDemand" (Tan & Jin, SC Workshops '25)
// without a production cluster: the dashboard only consumes Slurm's query
// surface (squeue, sinfo, sacct, scontrol show ...), so this package models
// exactly that surface, plus per-daemon RPC counters so experiments can
// measure the controller load that the paper's dual-layer caching design is
// meant to reduce.
//
// Time is injected through internal/clock; tests and benchmarks drive a
// clock.Sim for deterministic schedules, while servers may use clock.Real.
package slurm
