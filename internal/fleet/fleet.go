// Package fleet is the dashboard's scale-out serving tier: N core.Server
// replicas (in-process, on the shared simulated clock) behind a simulated
// load balancer, all reading one cache tier.
//
// The paper's §2.4 design puts one server cache (Rails.cache) in front of
// Slurm, and a shared store behind every app server is how that cache
// scales out. The fleet does the same: every replica gets the first
// replica's data cache and rendered cache, and otherwise runs the
// single-server code paths unchanged. A poll on any replica is served from
// the shared caches, so every replica serves the same bytes and ETags and
// a fill one replica ran serves them all; upstream cost stays one fill per
// key per TTL however many replicas there are. An SSE stream registers its
// sources on its own replica's scheduler, whose idle release sees that
// replica's subscribers. A killed replica holds no state anyone needs: the
// load balancer fails over to the next live one, which finds the same
// cache. Since replicas are interchangeable, the load balancer is plain
// round-robin. Each replica meters its own upstream calls
// (core.Server.UpstreamCalls) and exports its own SLO view; the fleet sums
// the one and pools the other.
//
// NoCoherence keeps a private cache per replica: the share-nothing
// ablation arm of the scale-out test.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/core"
	"ooddash/internal/slo"
	"ooddash/internal/slurmcli"
)

// Options configure a Fleet.
type Options struct {
	// Replicas is the initial replica count (at least 1).
	Replicas int
	// Policy is the load-balancing policy; empty or PolicyRoundRobin, the
	// only one.
	Policy Policy
	// Clock is the shared (possibly simulated) clock the fleet, every
	// replica and the cluster read; nil means wall clock.
	Clock clock.Clock
	// Build constructs one replica's server. It receives the replica id and
	// Runner, the runner every replica uses for upstream Slurm commands.
	// Required.
	Build func(id string, runner slurmcli.Runner) (*core.Server, error)
	// Runner is the upstream Slurm runner every replica shares. Required.
	Runner slurmcli.Runner
	// NoCoherence gives every replica its own private caches: replicas
	// become fully independent servers behind the LB, sharing nothing.
	// This is the ablation arm of the scale-out test (expected upstream
	// cost: ~N×).
	NoCoherence bool
}

// replica is one core.Server plus its fleet-side state.
type replica struct {
	id     string
	srv    *core.Server
	killed atomic.Bool // process death model
}

func (r *replica) healthy() bool { return !r.killed.Load() }

// Fleet runs the replicas and the load balancer.
type Fleet struct {
	opts Options
	met  *metrics

	mu       sync.Mutex
	replicas []*replica // append-only; killed members stay for metrics
	byID     map[string]*replica
	nextID   int
	closed   bool

	rr atomic.Int64 // round-robin cursor

	// sloAgg layers fleet-level SLO objectives over the healthy replicas'
	// engines: pooled counts decide whether the *fleet* meets an objective
	// even while one replica burns its budget. Built in New after the first
	// replica exists (objectives are copied from its engine).
	sloAgg *slo.Aggregator

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a fleet of opts.Replicas replicas. Close releases everything.
func New(opts Options) (*Fleet, error) {
	if opts.Build == nil {
		return nil, fmt.Errorf("fleet: New: missing Build factory")
	}
	if opts.Runner == nil {
		return nil, fmt.Errorf("fleet: New: missing Runner")
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Policy != "" && opts.Policy != PolicyRoundRobin {
		return nil, fmt.Errorf("fleet: New: unknown policy %q (round_robin is the only one)", opts.Policy)
	}
	fl := &Fleet{
		opts: opts,
		byID: make(map[string]*replica),
		stop: make(chan struct{}),
	}
	for i := 0; i < opts.Replicas; i++ {
		if _, err := fl.addReplica(); err != nil {
			fl.Close()
			return nil, err
		}
	}
	fl.sloAgg = slo.NewAggregator(opts.Clock, fl.replicas[0].srv.SLO().Objectives(), fl.sloMembers)
	fl.met = newMetrics(fl)
	return fl, nil
}

// sloMembers returns the healthy replicas' SLO engines; the aggregator
// re-resolves membership at every evaluation, so a killed replica drops out
// of the fleet SLIs at once.
func (fl *Fleet) sloMembers() []*slo.Engine {
	reps := fl.replicaList()
	out := make([]*slo.Engine, 0, len(reps))
	for _, rep := range reps {
		if rep.healthy() {
			out = append(out, rep.srv.SLO())
		}
	}
	return out
}

// SLO returns the fleet-level aggregator. Replica-local views stay on each
// replica's own Server.SLO(); both remain queryable side by side.
func (fl *Fleet) SLO() *slo.Aggregator { return fl.sloAgg }

// SLOStatus returns the fleet-level SLO snapshot (same shape as one
// replica's /api/admin/slo).
func (fl *Fleet) SLOStatus() slo.Status { return fl.sloAgg.Status() }

// addReplica builds one replica, attaches it to the first replica's caches
// (unless NoCoherence) and only then adds it to the routing set, so the
// load balancer never sees it with a private cache.
func (fl *Fleet) addReplica() (*replica, error) {
	fl.mu.Lock()
	id := fmt.Sprintf("r%d", fl.nextID)
	fl.nextID++
	fl.mu.Unlock()

	srv, err := fl.opts.Build(id, fl.opts.Runner)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: %w", id, err)
	}
	rep := &replica{id: id, srv: srv}
	fl.mu.Lock()
	if len(fl.replicas) > 0 && !fl.opts.NoCoherence {
		srv.ShareCaches(fl.replicas[0].srv)
	}
	fl.replicas = append(fl.replicas, rep)
	fl.byID[id] = rep
	fl.mu.Unlock()
	return rep, nil
}

// replicaList returns the replica slice (append-only, so the snapshot is
// safe to iterate without the lock).
func (fl *Fleet) replicaList() []*replica {
	fl.mu.Lock()
	out := make([]*replica, len(fl.replicas))
	copy(out, fl.replicas)
	fl.mu.Unlock()
	return out
}

// Tick advances the fleet one step on the shared clock: every healthy
// replica's background step (purge, its own push refreshes, SLO
// evaluation), then the fleet SLO evaluation. Tests and benches call it
// after advancing the simulated clock; production wraps it in Run.
func (fl *Fleet) Tick() {
	for _, rep := range fl.replicaList() {
		if rep.healthy() {
			rep.srv.TickPush()
		}
	}
	fl.sloAgg.Evaluate()
}

// Kill models a replica process death: its server closes (SSE streams get
// the shutdown event, its hub and scheduler stop) and the load balancer
// fails over past it.
func (fl *Fleet) Kill(id string) error {
	fl.mu.Lock()
	rep := fl.byID[id]
	fl.mu.Unlock()
	if rep == nil {
		return fmt.Errorf("fleet: Kill: unknown replica %q", id)
	}
	if rep.killed.Swap(true) {
		return nil
	}
	rep.srv.Close()
	return nil
}

// Join adds one new replica on the shared caches and returns its id. It
// serves whatever the cache tier holds from its first request.
func (fl *Fleet) Join() (string, error) {
	fl.mu.Lock()
	closed := fl.closed
	fl.mu.Unlock()
	if closed {
		return "", fmt.Errorf("fleet: Join: fleet closed")
	}
	rep, err := fl.addReplica()
	if err != nil {
		return "", err
	}
	return rep.id, nil
}

// Run wraps Tick in a wall-clock loop until Close, as core.Server.StartPush
// does for a single server's TickPush.
func (fl *Fleet) Run(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	fl.wg.Add(1)
	go func() {
		defer fl.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-fl.stop:
				return
			case <-t.C:
				fl.Tick()
			}
		}
	}()
}

// Close stops the Run loop and closes every replica. Idempotent.
func (fl *Fleet) Close() {
	fl.mu.Lock()
	if fl.closed {
		fl.mu.Unlock()
		return
	}
	fl.closed = true
	fl.mu.Unlock()
	close(fl.stop)
	fl.wg.Wait()
	for _, rep := range fl.replicaList() {
		rep.srv.Close()
	}
}

// Replicas returns the ids of all replicas ever added, in join order.
func (fl *Fleet) Replicas() []string {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	out := make([]string, len(fl.replicas))
	for i, rep := range fl.replicas {
		out[i] = rep.id
	}
	return out
}

// Live returns the ids of replicas not killed, in join order.
func (fl *Fleet) Live() []string {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	out := make([]string, 0, len(fl.replicas))
	for _, rep := range fl.replicas {
		if rep.healthy() {
			out = append(out, rep.id)
		}
	}
	return out
}

// Server returns a replica's server (tests and experiments).
func (fl *Fleet) Server(id string) *core.Server {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if rep := fl.byID[id]; rep != nil {
		return rep.srv
	}
	return nil
}

// UpstreamRPCs returns each replica's upstream calls by daemon, CLI
// commands and REST requests alike, as each replica's own meter counts
// them (core.Server.UpstreamCalls). A shared fill is charged to the
// replica whose request ran it.
func (fl *Fleet) UpstreamRPCs() map[string]map[string]int64 {
	out := make(map[string]map[string]int64)
	for _, rep := range fl.replicaList() {
		out[rep.id] = rep.srv.UpstreamCalls()
	}
	return out
}

// UpstreamCalls returns the upstream calls the replicas issued, by daemon:
// the sum of their meters. This is the load Slurm sees and the number the
// scale-out test's flatness gate compares.
func (fl *Fleet) UpstreamCalls() map[string]int64 {
	out := make(map[string]int64, 2)
	for _, counts := range fl.UpstreamRPCs() {
		for d, n := range counts {
			out[d] += n
		}
	}
	return out
}
