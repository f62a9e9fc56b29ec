// Package fleet is the dashboard's scale-out serving tier: N core.Server
// replicas (in-process, on the shared simulated clock) behind a simulated
// load balancer, with widget-refresh ownership partitioned across replicas
// by a consistent-hash ring and rendered snapshots propagated replica to
// replica through the push hub's versioned-snapshot machinery.
//
// The single-server push subsystem already makes upstream cost O(sources)
// instead of O(clients); the fleet keeps it O(sources) instead of
// O(sources × replicas). Each source key is polled by exactly one owner
// replica per TTL, and every owner publish is republished into every peer's
// hub. A peer serves the owner's etag.Body from its own hub — byte- and
// ETag-identical to what the owner would serve — via the
// core.FleetDelegate seam, and any replica can hold any SSE stream.
//
// Membership is heartbeat-based on the shared clock: a killed replica stops
// heartbeating, the detector declares it dead after HeartbeatTimeout, the
// ring is rebuilt, and every source the corpse owned is deterministically
// re-elected (registered and immediately refreshed on its new owner). In
// the gap before detection, the load balancer's passive failover keeps
// pages serving and peers serve their last propagated copy marked degraded.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/core"
	"ooddash/internal/push"
	"ooddash/internal/slo"
	"ooddash/internal/slurmcli"
)

// Options configure a Fleet.
type Options struct {
	// Replicas is the initial replica count (at least 1).
	Replicas int
	// Policy selects the load-balancing policy (default round_robin).
	Policy Policy
	// Clock is the shared (possibly simulated) clock the fleet, every
	// replica and the cluster read; nil means wall clock.
	Clock clock.Clock
	// Build constructs one replica's server. It receives the replica id and
	// the runner the replica must use for upstream Slurm commands (the
	// fleet wraps the base runner with a per-replica RPC meter). Replicas
	// should run with Push.DisableIdlePause — the fleet's idle reaper
	// replaces pause-when-idle, which cannot see subscribers on peer
	// replicas. Required.
	Build func(id string, runner slurmcli.Runner) (*core.Server, error)
	// Runner is the base upstream runner every replica's meter wraps.
	// Required.
	Runner slurmcli.Runner
	// NoCoherence disables ownership partitioning, snapshot propagation and
	// the command memo: replicas become fully independent servers behind
	// the LB, sharing nothing, upstream reads included. This is the
	// ablation arm of the scale-out test (expected upstream cost: ~N×).
	NoCoherence bool
	// HeartbeatTimeout declares a replica dead when its last heartbeat is
	// older than this (default 15s). Heartbeats are stamped on Tick, so the
	// timeout should be below the tick interval for next-tick detection.
	HeartbeatTimeout time.Duration
}

const (
	// vnodes is the consistent-hash virtual-node count per replica.
	vnodes = 64
	// memoTTL bounds the fleet-shared upstream command memo (see
	// memoRunner): identical commands issued by different replicas within
	// this window collapse to one upstream call. It must stay well below
	// the shortest widget TTL.
	memoTTL = 10 * time.Second
	// reapIdle is how long a source may go unrequested (and at least four
	// TTLs), with no hub subscription watching it, before the reaper
	// unregisters it and frees its refresh slot.
	reapIdle = 10 * time.Minute
)

// sourceState is the fleet's bookkeeping for one tracked source.
type sourceState struct {
	src      core.FleetSource
	owner    string // replica id currently scheduled to poll it
	lastUsed time.Time
}

// replica is one core.Server plus its fleet-side state.
type replica struct {
	id   string
	srv  *core.Server
	rpcs *meterRunner

	inflight atomic.Int64
	killed   atomic.Bool // explicitly killed (process death model)
	dead     atomic.Bool // declared dead by the heartbeat detector

	tap *push.Subscription // SubscribeAll tap feeding propagation

	// lastHB is guarded by the fleet mutex.
	lastHB time.Time
}

func (r *replica) healthy() bool { return !r.killed.Load() && !r.dead.Load() }

// meterRunner counts upstream commands by daemon, beneath the replica's own
// metered runner — it sees exactly the commands that reached the simulated
// daemons (cache hits and degraded fallbacks never get here).
type meterRunner struct {
	next slurmcli.Runner
	mu   sync.Mutex
	byD  map[string]int64
}

func newMeterRunner(next slurmcli.Runner) *meterRunner {
	return &meterRunner{next: next, byD: make(map[string]int64, 2)}
}

func (m *meterRunner) Run(name string, args ...string) (string, error) {
	m.mu.Lock()
	m.byD[slurmcli.DaemonFor(name)]++
	m.mu.Unlock()
	return m.next.Run(name, args...)
}

func (m *meterRunner) snapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.byD))
	for k, v := range m.byD {
		out[k] = v
	}
	return out
}

// Fleet runs the replicas, the load balancer, membership, and ownership.
type Fleet struct {
	opts  Options
	clock clock.Clock
	met   *metrics
	memo  *memoRunner // nil when NoCoherence

	mu       sync.Mutex
	replicas []*replica // append-only; killed/dead members stay for metrics
	byID     map[string]*replica
	sources  map[string]*sourceState
	nextID   int
	closed   bool

	ringPtr atomic.Pointer[ring] // rebuilt on membership change
	rr      atomic.Int64         // round-robin cursor

	// sloAgg layers fleet-level SLO objectives over the healthy replicas'
	// engines: pooled counts decide whether the *fleet* meets an objective
	// even while one replica burns its budget. Built in New after the first
	// replica exists (objectives are copied from its engine).
	sloAgg *slo.Aggregator

	// ensuring coalesces concurrent Ensure calls per key, fleet-wide: when
	// many replicas miss on the same cold key at once, exactly one owner
	// refresh runs and every caller shares its result (the fleet-tier
	// analogue of the single server's fill admission).
	ensureMu sync.Mutex
	ensuring map[string]*ensureCall

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a fleet of opts.Replicas replicas. Close releases everything.
func New(opts Options) (*Fleet, error) {
	if opts.Build == nil {
		return nil, fmt.Errorf("fleet: New: missing Build factory")
	}
	if opts.Runner == nil {
		return nil, fmt.Errorf("fleet: New: missing base Runner")
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Policy == "" {
		opts.Policy = PolicyRoundRobin
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 15 * time.Second
	}
	fl := &Fleet{
		opts:     opts,
		clock:    opts.Clock,
		byID:     make(map[string]*replica),
		sources:  make(map[string]*sourceState),
		ensuring: make(map[string]*ensureCall),
		stop:     make(chan struct{}),
	}
	if !opts.NoCoherence {
		fl.memo = newMemoRunner(opts.Clock, memoTTL, opts.Runner)
	}
	fl.met = newMetrics(fl)
	for i := 0; i < opts.Replicas; i++ {
		if _, err := fl.addReplica(); err != nil {
			fl.Close()
			return nil, err
		}
	}
	fl.rebuildRing()
	fl.sloAgg = slo.NewAggregator(opts.Clock, fl.replicas[0].srv.SLO().Objectives(), fl.sloMembers)
	return fl, nil
}

// sloMembers returns the healthy replicas' SLO engines; the aggregator
// re-resolves membership at every evaluation, so killed or dead replicas
// drop out of the fleet SLIs the moment the detector declares them.
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

// addReplica builds and registers one replica (no resync; callers decide).
func (fl *Fleet) addReplica() (*replica, error) {
	fl.mu.Lock()
	id := fmt.Sprintf("r%d", fl.nextID)
	fl.nextID++
	fl.mu.Unlock()

	base := fl.opts.Runner
	if fl.memo != nil {
		base = fl.memo
	}
	rpcs := newMeterRunner(base)
	srv, err := fl.opts.Build(id, rpcs)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: %w", id, err)
	}
	rep := &replica{
		id:     id,
		srv:    srv,
		rpcs:   rpcs,
		lastHB: fl.clock.Now(),
	}
	if !fl.opts.NoCoherence {
		srv.SetFleet(&binding{fl: fl, rep: rep})
		rep.tap = srv.PushHub().SubscribeAll()
	}
	fl.mu.Lock()
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

func (fl *Fleet) currentRing() *ring {
	if r := fl.ringPtr.Load(); r != nil {
		return r
	}
	return &ring{}
}

// rebuildRing recomputes the ring over healthy, detector-confirmed members.
// Killed-but-undetected replicas stay on the ring until the heartbeat
// detector removes them — ownership re-election is the detector's decision,
// never a side effect of serving.
func (fl *Fleet) rebuildRing() {
	fl.mu.Lock()
	ids := make([]string, 0, len(fl.replicas))
	for _, rep := range fl.replicas {
		if !rep.dead.Load() {
			ids = append(ids, rep.id)
		}
	}
	fl.mu.Unlock()
	fl.ringPtr.Store(buildRing(ids, vnodes))
}

// Owner returns the replica id currently owning key ("" if none).
func (fl *Fleet) Owner(key string) string { return fl.currentRing().owner(key) }

// binding adapts one replica to core.FleetDelegate.
type binding struct {
	fl  *Fleet
	rep *replica
}

func (b *binding) Owns(key string) bool {
	return b.fl.currentRing().owner(key) == b.rep.id
}

func (b *binding) Ensure(ctx context.Context, src core.FleetSource) (push.Snapshot, bool) {
	return b.fl.ensure(ctx, src)
}

func (b *binding) Touch(src core.FleetSource) { b.fl.track(src) }

// track records (or refreshes) the bookkeeping for src and returns the
// current owner replica, registering the source on it when new. The
// returned replica may be nil (no live owner).
func (fl *Fleet) track(src core.FleetSource) *replica {
	ownerID := fl.currentRing().owner(src.Key)
	now := fl.clock.Now()
	fl.mu.Lock()
	st := fl.sources[src.Key]
	if st == nil {
		st = &sourceState{src: src}
		fl.sources[src.Key] = st
	}
	st.lastUsed = now
	needRegister := st.owner != ownerID
	st.owner = ownerID
	owner := fl.byID[ownerID]
	fl.mu.Unlock()
	if owner == nil || !owner.healthy() {
		return nil
	}
	if needRegister {
		if err := owner.srv.RegisterPushSource(src); err != nil {
			return nil
		}
	}
	return owner
}

// ensureCall is one in-flight coalesced Ensure; waiters block on done.
type ensureCall struct {
	done chan struct{}
	snap push.Snapshot
	ok   bool
}

// ensure makes the current owner produce a fresh snapshot of src.
// Concurrent calls for the same key share one owner refresh.
func (fl *Fleet) ensure(ctx context.Context, src core.FleetSource) (push.Snapshot, bool) {
	fl.ensureMu.Lock()
	if c, inflight := fl.ensuring[src.Key]; inflight {
		fl.ensureMu.Unlock()
		select {
		case <-c.done:
			return c.snap, c.ok
		case <-ctx.Done():
			return push.Snapshot{}, false
		}
	}
	c := &ensureCall{done: make(chan struct{})}
	fl.ensuring[src.Key] = c
	fl.ensureMu.Unlock()

	c.snap, c.ok = fl.ensureOnce(ctx, src)

	fl.ensureMu.Lock()
	delete(fl.ensuring, src.Key)
	fl.ensureMu.Unlock()
	close(c.done)
	return c.snap, c.ok
}

// ensureOnce refreshes src on its owner and republishes the owner's
// snapshot — confirmed now, whether or not its content changed — into
// every healthy peer's hub, so each peer serves it at once.
func (fl *Fleet) ensureOnce(ctx context.Context, src core.FleetSource) (push.Snapshot, bool) {
	owner := fl.track(src)
	if owner == nil {
		fl.met.ensureFailures.Inc()
		return push.Snapshot{}, false
	}
	snap, err := owner.srv.PushScheduler().Refresh(ctx, src.Key)
	if err != nil {
		fl.met.ensureFailures.Inc()
		return push.Snapshot{}, false
	}
	fl.republish(owner, snap)
	return snap, true
}

// republish hands an owner snapshot, body and tag as they are, to every
// other healthy replica's hub. A hub already holding a newer snapshot
// keeps it, so a drain racing an ensure never rolls a peer back.
func (fl *Fleet) republish(origin *replica, snap push.Snapshot) {
	for _, rep := range fl.replicaList() {
		if rep != origin && rep.healthy() {
			rep.srv.PushHub().Republish(snap)
		}
	}
}

// Tick advances the fleet one step on the shared clock: heartbeats and
// failure detection (with re-election on membership change), every healthy
// replica's scheduled refreshes, the propagation drain that carries new
// owner snapshots to peers, and the idle-source reaper. Tests and benches
// call it after advancing the simulated clock; production wraps it in Run.
func (fl *Fleet) Tick() {
	now := fl.clock.Now()
	fl.heartbeat(now)
	for _, rep := range fl.replicaList() {
		if !rep.healthy() {
			continue
		}
		rep.srv.TickPush()
		fl.drainTap(rep)
	}
	fl.sloAgg.Evaluate()
	fl.reap(now)
}

// heartbeat stamps live members and declares silent ones dead, rebuilding
// the ring and re-electing ownership when membership changes.
func (fl *Fleet) heartbeat(now time.Time) {
	changed := false
	fl.mu.Lock()
	for _, rep := range fl.replicas {
		if !rep.killed.Load() && !rep.dead.Load() {
			rep.lastHB = now
			continue
		}
		if rep.dead.Load() {
			continue
		}
		// Killed but not yet declared: the corpse's last heartbeat ages out.
		if now.Sub(rep.lastHB) >= fl.opts.HeartbeatTimeout {
			rep.dead.Store(true)
			changed = true
		}
	}
	fl.mu.Unlock()
	if changed {
		fl.met.hbExpiries.Inc()
		fl.resync()
	}
}

// resync rebuilds the ring and moves every source whose owner changed:
// unregister from the old owner (when still alive — a dead one needs no
// cleanup), register on the new owner, and refresh immediately so the
// re-elected source starts its TTL cadence with a current snapshot. That
// immediate refresh is the only extra upstream poll a handover costs.
func (fl *Fleet) resync() {
	fl.rebuildRing()
	rg := fl.currentRing()
	type move struct {
		src      core.FleetSource
		from, to *replica
	}
	var moves []move
	fl.mu.Lock()
	for key, st := range fl.sources {
		newOwner := rg.owner(key)
		if newOwner == st.owner {
			continue
		}
		moves = append(moves, move{src: st.src, from: fl.byID[st.owner], to: fl.byID[newOwner]})
		st.owner = newOwner
	}
	fl.mu.Unlock()
	// Deterministic order: moves derive from map iteration above.
	sort.Slice(moves, func(i, j int) bool { return moves[i].src.Key < moves[j].src.Key })
	for _, m := range moves {
		fl.met.ownerChanges.Inc()
		if m.from != nil && m.from.healthy() {
			m.from.srv.PushScheduler().Unregister(m.src.Key)
		}
		if m.to == nil || !m.to.healthy() {
			continue
		}
		if err := m.to.srv.RegisterPushSource(m.src); err != nil {
			continue
		}
		if snap, err := m.to.srv.PushScheduler().Refresh(context.Background(), m.src.Key); err == nil {
			fl.republish(m.to, snap)
			fl.met.propagations.Inc()
		}
	}
}

// drainTap pops every snapshot the replica's hub published since the last
// drain and republishes the ones this replica currently owns (everything
// else is a propagated-in copy or a stale-ownership publish and is already
// where it needs to be). The tap holds the owner's newest version of each
// key, so the drain confirms it as of now.
func (fl *Fleet) drainTap(rep *replica) {
	if rep.tap == nil {
		return
	}
	rg := fl.currentRing()
	now := fl.clock.Now()
	for {
		snap, ok := rep.tap.Pop()
		if !ok {
			return
		}
		if rg.owner(snap.Key) != rep.id {
			continue
		}
		fl.met.propLag.Observe(now.Sub(snap.Timestamp).Seconds())
		snap.Timestamp = now
		fl.republish(rep, snap)
		fl.met.propagations.Inc()
	}
}

// reap unregisters sources nothing has requested for reapIdle (and at
// least four TTLs), as long as no replica's hub has a live subscription
// watching the key, and drops the key from every replica's hub so the next
// request ensures it afresh. This replaces the single-server scheduler's
// pause-when-idle, which cannot see subscribers on peer replicas.
func (fl *Fleet) reap(now time.Time) {
	type idle struct {
		key   string
		owner *replica
	}
	var idles []idle
	fl.mu.Lock()
	for key, st := range fl.sources {
		cutoff := reapIdle
		if four := 4 * st.src.TTL; four > cutoff {
			cutoff = four
		}
		if now.Sub(st.lastUsed) > cutoff {
			idles = append(idles, idle{key: key, owner: fl.byID[st.owner]})
		}
	}
	fl.mu.Unlock()
	for _, it := range idles {
		watched := false
		for _, rep := range fl.replicaList() {
			if rep.healthy() && rep.srv.PushHub().SubscribersFor(it.key) > 0 {
				watched = true
				break
			}
		}
		fl.mu.Lock()
		if st := fl.sources[it.key]; st != nil {
			if watched {
				st.lastUsed = now
			} else {
				delete(fl.sources, it.key)
			}
		}
		fl.mu.Unlock()
		if watched {
			continue
		}
		if it.owner != nil && it.owner.healthy() {
			it.owner.srv.PushScheduler().Unregister(it.key)
		}
		for _, rep := range fl.replicaList() {
			rep.srv.PushHub().Drop(it.key)
		}
		fl.met.reaped.Inc()
	}
}

// Kill models a replica process death: its server closes (SSE streams get
// the shutdown event, its hub and scheduler stop) and it stops
// heartbeating. The load balancer fails over immediately; ownership
// re-election waits for the heartbeat detector, exactly as it would with a
// real silent crash.
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

// Join adds one new replica, rebuilds the ring, and re-elects the sources
// the newcomer now owns. Returns the new replica's id.
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
	fl.resync()
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
		if rep.tap != nil {
			rep.tap.Close()
		}
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

// Live returns the ids of replicas that are neither killed nor declared
// dead, in join order.
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

// UpstreamRPCs returns each replica's issued upstream command counts by
// daemon, before memo collapsing (per-replica attribution).
func (fl *Fleet) UpstreamRPCs() map[string]map[string]int64 {
	out := make(map[string]map[string]int64)
	for _, rep := range fl.replicaList() {
		out[rep.id] = rep.rpcs.snapshot()
	}
	return out
}

// UpstreamCalls returns the commands that actually reached the simulated
// daemons, by daemon — issued minus memo-collapsed. This is the load Slurm
// sees and the number the scale-out test's flatness gate compares. Without a
// memo (NoCoherence) it equals the sum of UpstreamRPCs.
func (fl *Fleet) UpstreamCalls() map[string]int64 {
	if fl.memo != nil {
		misses, _ := fl.memo.counts()
		return misses
	}
	out := make(map[string]int64, 2)
	for _, counts := range fl.UpstreamRPCs() {
		for d, n := range counts {
			out[d] += n
		}
	}
	return out
}

// SourceRefreshes returns, per replica, the per-key refresh counts of its
// scheduler — the scale-out test's per-round duplicate-poll evidence.
func (fl *Fleet) SourceRefreshes() map[string]map[string]int64 {
	out := make(map[string]map[string]int64)
	for _, rep := range fl.replicaList() {
		if rep.healthy() {
			out[rep.id] = rep.srv.PushScheduler().SourceRefreshes()
		}
	}
	return out
}

// CheckExclusiveOwnership verifies that no source key is registered on more
// than one healthy replica's scheduler — the fleet invariant that each
// source is polled by exactly one owner per TTL.
func (fl *Fleet) CheckExclusiveOwnership() error {
	ownerOf := make(map[string]string)
	for _, rep := range fl.replicaList() {
		if !rep.healthy() {
			continue
		}
		for _, key := range rep.srv.PushSourceKeys() {
			if prev, dup := ownerOf[key]; dup {
				return fmt.Errorf("fleet: source %q scheduled on both %s and %s", key, prev, rep.id)
			}
			ownerOf[key] = rep.id
		}
	}
	return nil
}
