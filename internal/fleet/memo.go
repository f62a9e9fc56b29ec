package fleet

import (
	"strings"
	"sync"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/slurmcli"
)

// memoRunner is the fleet's collapsed-forwarding layer: one shared runner
// beneath every replica that single-flights identical upstream commands and
// memoizes successful output for a short TTL on the shared clock.
//
// Ownership partitioning makes widget *refreshes* exclusive, but a widget's
// fetch may issue upstream commands keyed below the source key — the
// accounts widget polls per-account data shared by every user of that
// account, deduped only by a per-replica cache. Spreading per-user
// ownership across replicas would multiply those group-level commands by
// the number of owning replicas; the memo collapses them fleet-wide
// instead, the same way a caching proxy in front of slurmctld would.
//
// The TTL must stay well below the shortest widget TTL so the memo can
// never mask a refresh cadence — it only absorbs the same-instant
// duplicates of a single fleet-wide refresh wave. Errors are never cached.
type memoRunner struct {
	clock clock.Clock
	ttl   time.Duration
	next  slurmcli.Runner

	mu      sync.Mutex
	entries map[string]*memoEntry
	hits    map[string]int64 // collapsed commands by daemon
	misses  map[string]int64 // commands that reached upstream, by daemon
}

type memoEntry struct {
	done chan struct{}
	out  string
	err  error
	at   time.Time
}

func newMemoRunner(clk clock.Clock, ttl time.Duration, next slurmcli.Runner) *memoRunner {
	return &memoRunner{
		clock:   clk,
		ttl:     ttl,
		next:    next,
		entries: make(map[string]*memoEntry),
		hits:    make(map[string]int64, 2),
		misses:  make(map[string]int64, 2),
	}
}

func (m *memoRunner) Run(name string, args ...string) (string, error) {
	key := name + "\x00" + strings.Join(args, "\x00")
	daemon := slurmcli.DaemonFor(name)
	now := m.clock.Now()

	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		select {
		case <-e.done:
			// Completed entries in the map are always successes (errors are
			// deleted by their executor); serve if still fresh.
			if now.Sub(e.at) <= m.ttl {
				m.hits[daemon]++
				m.mu.Unlock()
				return e.out, nil
			}
		default:
			// In flight: share the executor's result. A shared error is
			// returned uncached, so the next caller retries upstream.
			m.mu.Unlock()
			<-e.done
			if e.err == nil {
				m.mu.Lock()
				m.hits[daemon]++
				m.mu.Unlock()
			}
			return e.out, e.err
		}
	}
	e := &memoEntry{done: make(chan struct{})}
	m.entries[key] = e
	m.misses[daemon]++
	if len(m.entries) > 256 {
		for k, old := range m.entries {
			select {
			case <-old.done:
				if now.Sub(old.at) > m.ttl {
					delete(m.entries, k)
				}
			default:
			}
		}
	}
	m.mu.Unlock()

	e.out, e.err = m.next.Run(name, args...)
	e.at = m.clock.Now()
	close(e.done)
	if e.err != nil {
		m.mu.Lock()
		if m.entries[key] == e {
			delete(m.entries, key)
		}
		m.mu.Unlock()
	}
	return e.out, e.err
}

// counts returns (upstream calls, collapsed calls) by daemon.
func (m *memoRunner) counts() (misses, hits map[string]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	misses = make(map[string]int64, len(m.misses))
	for k, v := range m.misses {
		misses[k] = v
	}
	hits = make(map[string]int64, len(m.hits))
	for k, v := range m.hits {
		hits[k] = v
	}
	return misses, hits
}
