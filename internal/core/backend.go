package core

import (
	"context"
	"fmt"

	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
)

// slurmBackend is the read-side Slurm surface the widget routes consume,
// in the typed-row vocabulary of internal/slurmcli. Two implementations
// exist: the CLI shell-out emulation (parse text) and the slurmrestd-style
// REST client, *slurmrest.Client itself (decode JSON). Write commands
// (scancel, hold/release) and the queries without a REST endpoint (assoc,
// reservations, sprio, the per-account sreport) always go through the CLI
// runner.
type slurmBackend interface {
	Squeue(ctx context.Context, opts slurmcli.SqueueOptions) ([]slurmcli.QueueEntry, error)
	Sacct(ctx context.Context, opts slurmcli.SacctOptions) ([]slurmcli.SacctRow, error)
	Rollup(ctx context.Context, opts slurmcli.RollupOptions) (slurmcli.RollupResult, error)
	Sinfo(ctx context.Context) ([]slurmcli.PartitionStatus, error)
	ShowAllNodes(ctx context.Context) ([]*slurmcli.NodeDetail, error)
	ShowJob(ctx context.Context, id slurm.JobID) (*slurmcli.JobDetail, error)
	Sdiag(ctx context.Context) (ctld, dbd slurmcli.DaemonDiag, err error)
}

// cliBackend adapts the server's metered runner to the backend interface.
// Binding ctx per call keeps command spans attached to the request trace.
type cliBackend struct{ s *Server }

func (b cliBackend) Squeue(ctx context.Context, opts slurmcli.SqueueOptions) ([]slurmcli.QueueEntry, error) {
	return slurmcli.Squeue(b.s.runnerCtx(ctx), opts)
}

func (b cliBackend) Sacct(ctx context.Context, opts slurmcli.SacctOptions) ([]slurmcli.SacctRow, error) {
	return slurmcli.Sacct(b.s.runnerCtx(ctx), opts)
}

func (b cliBackend) Rollup(ctx context.Context, opts slurmcli.RollupOptions) (slurmcli.RollupResult, error) {
	return slurmcli.SreportRollup(b.s.runnerCtx(ctx), opts)
}

func (b cliBackend) Sinfo(ctx context.Context) ([]slurmcli.PartitionStatus, error) {
	return slurmcli.Sinfo(b.s.runnerCtx(ctx))
}

func (b cliBackend) ShowAllNodes(ctx context.Context) ([]*slurmcli.NodeDetail, error) {
	return slurmcli.ShowAllNodes(b.s.runnerCtx(ctx))
}

func (b cliBackend) ShowJob(ctx context.Context, id slurm.JobID) (*slurmcli.JobDetail, error) {
	return slurmcli.ShowJob(b.s.runnerCtx(ctx), id)
}

func (b cliBackend) Sdiag(ctx context.Context) (ctld, dbd slurmcli.DaemonDiag, err error) {
	return slurmcli.Sdiag(slurmcli.Bind(ctx, b.s.runner))
}

// buildBackends resolves the per-source backend selection from the config.
// Each daemon's queries can independently ride the CLI or REST path, so a
// deployment can migrate one source at a time (the paper's incremental
// adoption story applied to the data layer).
func (s *Server) buildBackends(rest *slurmrest.Client) error {
	cli := cliBackend{s}
	pick := func(source, mode string) (slurmBackend, error) {
		switch mode {
		case "", BackendCLI:
			return cli, nil
		case BackendREST:
			if rest == nil {
				return nil, fmt.Errorf("core: %s backend is %q but Deps.REST is nil", source, mode)
			}
			// The client already speaks slurmcli's row types and maps 503s
			// to the unavailability class, so the resilience layer treats
			// both backends identically.
			return rest, nil
		default:
			return nil, fmt.Errorf("core: unknown %s backend %q (want %q or %q)",
				source, mode, BackendCLI, BackendREST)
		}
	}
	var err error
	if s.ctldBk, err = pick(srcCtld, s.cfg.Backend.Slurmctld); err != nil {
		return err
	}
	if s.dbdBk, err = pick(srcDBD, s.cfg.Backend.Slurmdbd); err != nil {
		return err
	}
	return nil
}
