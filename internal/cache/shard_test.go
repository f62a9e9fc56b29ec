package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardedStatsExactness runs a deterministic concurrent workload and
// checks the atomic counters account for every single call: sharding the
// entry maps must not lose or double-count stats.
func TestShardedStatsExactness(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
		keys       = 32
	)
	c := New(newTestClock())
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("k%d", (g*perG+i)%keys)
				res, err := c.FetchStale(key, time.Hour, time.Hour, func() (any, error) {
					computes.Add(1)
					return key, nil
				})
				if err != nil {
					t.Errorf("FetchStale(%s): %v", key, err)
					return
				}
				if res.Value != key {
					t.Errorf("FetchStale(%s) = %v", key, res.Value)
					return
				}
				if res.Rev == 0 {
					t.Errorf("FetchStale(%s): rev 0 on cacheable fetch", key)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := c.Stats()
	total := st.Hits + st.Misses + st.Collapsed
	if total != goroutines*perG {
		t.Fatalf("hits(%d)+misses(%d)+collapsed(%d) = %d, want %d",
			st.Hits, st.Misses, st.Collapsed, total, goroutines*perG)
	}
	if st.Misses != computes.Load() {
		t.Fatalf("misses = %d, computes = %d; must match exactly", st.Misses, computes.Load())
	}
	if st.Misses < keys {
		t.Fatalf("misses = %d, want >= %d (every key computes at least once)", st.Misses, keys)
	}
	if st.Errors != 0 || st.StaleServed != 0 || st.Stale != 0 {
		t.Fatalf("unexpected error-path stats: %+v", st)
	}
	if c.Len() != keys {
		t.Fatalf("Len() = %d, want %d", c.Len(), keys)
	}

	c.Clear()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after Clear = %+v, want zero", st)
	}
	if c.Len() != 0 {
		t.Fatalf("Len() after Clear = %d, want 0", c.Len())
	}
}

// TestShardDistribution sanity-checks the FNV shard routing: a realistic
// key population must land on every shard, or per-shard locking degrades
// back to global contention.
func TestShardDistribution(t *testing.T) {
	c := New(nil)
	hit := make(map[*shard]bool, numShards)
	for i := 0; i < 512; i++ {
		hit[c.shardFor(fmt.Sprintf("widget:user%d:arg%d", i%7, i))] = true
	}
	if len(hit) != numShards {
		t.Fatalf("512 realistic keys hit %d of %d shards", len(hit), numShards)
	}
}
