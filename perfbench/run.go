package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ooddash/internal/browser"
	"ooddash/internal/slurm"
	"ooddash/internal/workload"
)

// minPages keeps at least ten samples beyond each fifth's p99.
const minPages = 5000

// preroll is the simulated time the cluster runs alone, in prerollTick
// steps, before the dashboard is built.
const (
	preroll     = 24 * time.Hour
	prerollTick = 5 * time.Minute
)

// sim drives one built stack step by step on the shared SimClock.
type sim struct {
	def     *workloadDef
	env     *workload.Env
	st      *stack
	rec     *recorder
	actors  []*actor
	workers []*worker

	arrivals    *rand.Rand
	perDay      float64 // mean job arrivals per simulated day
	owed        float64 // fractional arrivals carried to the next advance
	nextCohort  time.Time
	cohortIndex int

	wg sync.WaitGroup
}

// worker is one client goroutine and the users it owns, with its span
// lane. Worker 0 runs on the driving goroutine (which also runs the
// background tick); the others are persistent goroutines.
type worker struct {
	lane   *lane
	client clientStats
	due    []*actor
	start  chan time.Time
	done   chan struct{}

	record bool // count this step's pages
	tally  pageTally
}

// pageTally accumulates browser-side page outcomes.
type pageTally struct {
	lat                              []float64 // ms; +Inf for a failed page
	stepEnds                         []int     // len(lat) after each step
	pages, widgets, fetches, instant int64
	notModified, degraded, failed    int64
	pagesPerStep                     int
}

func (t *pageTally) add(o pageTally) {
	t.pages += o.pages
	t.widgets += o.widgets
	t.fetches += o.fetches
	t.instant += o.instant
	t.notModified += o.notModified
	t.degraded += o.degraded
	t.failed += o.failed
}

// newSim builds the environment, the stack and the users for one setup.
func newSim(def *workloadDef, seed int64) (*sim, error) {
	spec := def.spec
	spec.Seed = seed
	env, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	if def.history > 0 {
		env.SynthesizeHistory(0, def.history)
	}
	s := &sim{
		def:      def,
		env:      env,
		rec:      newRecorder(def.workers),
		arrivals: rand.New(rand.NewSource(seed ^ 0x5eed)),
		perDay:   float64(spec.JobsPerDay),
	}
	// The replayed trace ends at its nightly low; a simulator-only pre-roll
	// at the constant arrival rate lets the queue settle before any page.
	for t := time.Duration(0); t < preroll; t += prerollTick {
		s.advance(prerollTick)
	}
	if s.st, err = buildStack(env, def, s.rec); err != nil {
		return nil, err
	}
	rec := s.rec
	now := env.Clock.Now()
	s.nextCohort = now.Add(def.cohortEvery)
	for w := 0; w < def.workers; w++ {
		wk := &worker{lane: rec.lanes[w]}
		s.workers = append(s.workers, wk)
	}
	for i, user := range env.UserNames {
		wk := s.workers[i%len(s.workers)]
		hc := &http.Client{Transport: &browserTransport{h: s.st.handler, rec: rec, lane: wk.lane, stats: &wk.client}}
		a := &actor{
			def:  def,
			user: user,
			b:    browser.New(user, "http://dashboard.invalid", hc, env.Clock),
			rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
			next: now,
		}
		def.start(a, i, len(env.UserNames))
		s.actors = append(s.actors, a)
	}
	for _, wk := range s.workers[1:] {
		wk.start, wk.done = make(chan time.Time), make(chan struct{})
		s.wg.Add(1)
		go func(wk *worker) {
			defer s.wg.Done()
			for now := range wk.start {
				wk.loadDue(rec, now)
				wk.done <- struct{}{}
			}
		}(wk)
	}
	return s, nil
}

// close stops the client goroutines and the stack, and waits for them.
func (s *sim) close() {
	for _, wk := range s.workers[1:] {
		close(wk.start)
	}
	s.wg.Wait()
	s.st.close()
}

// loadDue loads every due user's page on this goroutine.
func (w *worker) loadDue(rec *recorder, now time.Time) {
	w.tally.pagesPerStep = 0
	for _, a := range w.due {
		page, wait := a.def.plan(a)
		traced := rec.on.Load()
		t0 := time.Now()
		var idx int32
		if traced {
			idx = rec.begin(w.lane, kindPage)
		}
		pl := a.b.LoadPage(page)
		if traced {
			rec.end(w.lane, idx)
		}
		ms := float64(time.Since(t0)) / 1e6
		a.seq++
		a.next = now.Add(wait)
		if !w.record {
			continue
		}
		t := &w.tally
		if pl.Failed > 0 {
			ms = math.Inf(1)
			t.failed++
		}
		t.lat = append(t.lat, ms)
		t.pages++
		t.pagesPerStep++
		t.widgets += int64(len(pl.Widgets))
		t.fetches += int64(pl.NetworkFetches)
		t.instant += int64(pl.InstantPaints)
		t.notModified += int64(pl.NotModified)
		t.degraded += int64(pl.DegradedPaints)
	}
}

// advance moves the cluster forward by d: the clock, seeded job arrivals at
// the replayed trace's mean rate, and one Ctl.Tick (SubmitRandom ends with
// it, even when nothing arrives).
func (s *sim) advance(d time.Duration) time.Time {
	now := s.env.Clock.Advance(d)
	s.owed += s.perDay * d.Hours() / 24
	n := int(s.owed)
	s.owed -= float64(n)
	s.env.SubmitRandom(s.arrivals, n)
	return now
}

// step advances one simulated step. The simulator's own work (clock,
// arrivals, Ctl.Tick, cohort arrivals, picking due users) is untimed; the
// returned duration covers the dashboard's background tick and every page
// load, with all client goroutines joined.
func (s *sim) step(record bool) (pages int, timed time.Duration) {
	now := s.advance(s.def.step)
	if s.def.cohortSize > 0 && !now.Before(s.nextCohort) {
		for k := 0; k < s.def.cohortSize; k++ {
			s.actors[s.cohortIndex%len(s.actors)].b.ClearCache()
			s.cohortIndex++
		}
		s.nextCohort = s.nextCohort.Add(s.def.cohortEvery)
	}
	for _, w := range s.workers {
		w.due = w.due[:0]
		w.record = record
	}
	for i, a := range s.actors {
		if !a.next.After(now) {
			w := s.workers[i%len(s.workers)]
			w.due = append(w.due, a)
		}
	}

	t0 := time.Now()
	s.st.backgroundTick()
	for _, w := range s.workers[1:] {
		w.start <- now
	}
	s.workers[0].loadDue(s.rec, now)
	for _, w := range s.workers[1:] {
		<-w.done
	}
	timed = time.Since(t0)
	for _, w := range s.workers {
		pages += w.tally.pagesPerStep
	}
	return pages, timed
}

// warm drives the warm-up span untimed; its responses are checked too.
func (s *sim) warm() error {
	end := s.env.Clock.Now().Add(s.def.warmup)
	for s.env.Clock.Now().Before(end) {
		s.step(false)
	}
	for _, w := range s.workers {
		if w.client.bad > 0 {
			return fmt.Errorf("warm-up: %d bad responses, first: %s", w.client.bad, w.client.firstBad)
		}
	}
	return nil
}

// snapshot reads every counter a phase reports as a delta.
type snapshot struct {
	at                          time.Time
	ctld, dbd                   map[slurm.RPCKind]int64
	active                      int
	renderHits, renderMisses    int64
	encodes, fillRejected       int64
	dataHits, dataMisses        int64
	retries, shortCircuits      int64
	issued, calls, ownerChanges int64
	refreshes                   int64
	mallocs, numGC              uint64
}

func (s *sim) snapshot(mem bool) snapshot {
	sn := snapshot{
		at:     s.env.Clock.Now(),
		ctld:   s.env.Cluster.Ctl.Stats().Snapshot(),
		dbd:    s.env.Cluster.DBD.Stats().Snapshot(),
		active: s.env.Cluster.Ctl.ActiveJobCount(),
	}
	for _, srv := range s.st.servers {
		h, m := srv.RenderStats()
		sn.renderHits += h
		sn.renderMisses += m
		sn.encodes += srv.RenderEncodes()
		for _, f := range srv.FillStats() {
			sn.fillRejected += f.Rejected
		}
		cs := srv.Cache().Stats()
		sn.dataHits += cs.Hits
		sn.dataMisses += cs.Misses
		for _, b := range srv.Resilience().Snapshot() {
			sn.retries += b.Retries
			sn.shortCircuits += b.ShortCircuits
		}
		for _, n := range srv.PushScheduler().SourceRefreshes() {
			sn.refreshes += n
		}
	}
	if fl := s.st.fl; fl != nil {
		for _, byDaemon := range fl.UpstreamRPCs() {
			for _, n := range byDaemon {
				sn.issued += n
			}
		}
		for _, n := range fl.UpstreamCalls() {
			sn.calls += n
		}
		sn.ownerChanges = fl.OwnerChanges()
	}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sn.mallocs, sn.numGC = ms.Mallocs, uint64(ms.NumGC)
	}
	return sn
}

// phase is one timed stretch of steps.
type phase struct {
	tally         pageTally // counts only; latencies are in fifthLat
	fifthLat      [5][]float64
	client        clientStats
	stepPages     []int
	stepNanos     []int64
	timed         time.Duration
	before, after snapshot
	// windowRPCs counts dashboard RPCs over the first window of simulated
	// time; windowMinutes is that window's length. windowHeap is HeapAlloc
	// after a full GC at the window's end: the same simulated state in
	// every run with one seed, however far the run gets.
	windowRPCs    int64
	windowMinutes float64
	windowHeap    uint64
}

// Every wall-clock figure is the median of its value over the five fifths
// of the phase, so a disturbance of a few seconds on a shared machine moves
// one fifth, not the result.

func (p *phase) pagesPerSec() float64 { return median(fifthRates(p.stepPages, p.stepNanos)) }

func (p *phase) latency(q float64) float64 {
	var per []float64
	for _, lat := range p.fifthLat {
		per = append(per, percentile(lat, q))
	}
	return median(per)
}

func (p *phase) samples() int {
	n := 0
	for _, lat := range p.fifthLat {
		n += len(lat)
	}
	return n
}

func (p *phase) simMinutes() float64 { return p.after.at.Sub(p.before.at).Minutes() }

// runPhase steps until d of wall time has passed, the RPC window is
// complete and at least minPages pages were loaded.
func (s *sim) runPhase(d time.Duration) *phase {
	for _, w := range s.workers {
		w.tally = pageTally{}
		w.client = clientStats{}
	}
	windowSteps := int(s.def.window / s.def.step)
	p := &phase{before: s.snapshot(true)}
	wallStart := time.Now()
	pages := 0
	for steps := 0; time.Since(wallStart) < d || steps < windowSteps || pages < minPages; steps++ {
		n, t := s.step(true)
		pages += n
		p.stepPages = append(p.stepPages, n)
		p.stepNanos = append(p.stepNanos, int64(t))
		p.timed += t
		for _, w := range s.workers {
			w.tally.stepEnds = append(w.tally.stepEnds, len(w.tally.lat))
		}
		if steps+1 == windowSteps {
			at := s.env.Clock.Now()
			ctld := rpcDelta(s.env.Cluster.Ctl.Stats().Snapshot(), p.before.ctld)
			dbd := rpcDelta(s.env.Cluster.DBD.Stats().Snapshot(), p.before.dbd)
			p.windowRPCs = dashboardRPCs(ctld) + dashboardRPCs(dbd)
			p.windowMinutes = at.Sub(p.before.at).Minutes()
			// Between steps, so outside the timed part.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			p.windowHeap = ms.HeapAlloc
		}
	}
	p.after = s.snapshot(true)
	for _, w := range s.workers {
		p.tally.add(w.tally)
		p.client.merge(w.client)
	}
	for f := range p.fifthLat {
		lo, hi := fifth(len(p.stepPages), f)
		for _, w := range s.workers {
			from := 0
			if lo > 0 {
				from = w.tally.stepEnds[lo-1]
			}
			p.fifthLat[f] = append(p.fifthLat[f], w.tally.lat[from:w.tally.stepEnds[hi-1]]...)
		}
	}
	return p
}

func (st *clientStats) merge(o clientStats) {
	if st.bad == 0 && o.bad > 0 {
		st.firstBad = o.firstBad
	}
	st.responses += o.responses
	st.bytes += o.bytes
	st.peer += o.peer
	st.bad += o.bad
}

// validate applies the steady-state guard and the per-phase output checks.
func (s *sim) validate(name string, p *phase) ([]float64, error) {
	fifths := fifthRates(p.stepPages, p.stepNanos)
	if p.client.bad > 0 {
		return fifths, fmt.Errorf("%s: %d bad responses, first: %s", name, p.client.bad, p.client.firstBad)
	}
	if p.tally.failed > 0 || p.tally.degraded > 0 {
		return fifths, fmt.Errorf("%s: %d failed pages, %d degraded paints", name, p.tally.failed, p.tally.degraded)
	}
	if err := checkDrift(p.before.active, p.after.active, fifths); err != nil {
		return fifths, fmt.Errorf("%s: steady-state guard: %w", name, err)
	}
	return fifths, nil
}
