// Package clientcache models the browser-side IndexedDB cache the paper's
// frontend uses (§2.4): a structured store of API responses keyed by route,
// letting the dashboard render instantly from cached data while fresh data
// loads in the background.
//
// A DB holds named object stores (IndexedDB's unit of organization); each
// record carries the stored payload plus its write time, so callers can
// implement the paper's render-now-refresh-later policy. Fetch implements
// that policy directly: a fresh record is served without network, a stale or
// missing record triggers the fetch function, and the caller learns whether
// the first paint could have come from cache.
package clientcache

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ooddash/internal/clock"
)

// ErrNotModified is the sentinel a tagged fetch function returns when the
// server answered 304 Not Modified: the cached copy is still current and
// only its freshness clock needs resetting.
var ErrNotModified = errors.New("clientcache: not modified")

// Record is one stored API response.
type Record struct {
	Key      string
	Value    []byte
	StoredAt time.Time
	// ETag is the entity tag the server sent with the payload; sent back as
	// If-None-Match when the record needs revalidating.
	ETag string
}

// Age returns how old the record is at the given instant.
func (r Record) Age(now time.Time) time.Duration { return now.Sub(r.StoredAt) }

// Store is one IndexedDB object store. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	name    string
	records map[string]Record
	clock   clock.Clock
}

// Put stores value under key, stamping it with the current time.
func (s *Store) Put(key string, value []byte) {
	s.PutTagged(key, value, "")
}

// PutTagged stores value with its server entity tag.
func (s *Store) PutTagged(key string, value []byte, etag string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(value))
	copy(cp, value)
	s.records[key] = Record{Key: key, Value: cp, StoredAt: s.clock.Now(), ETag: etag}
}

// Touch re-stamps an existing record as fresh without changing its value —
// the bookkeeping for a 304 revalidation. A missing key is a no-op.
func (s *Store) Touch(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.records[key]; ok {
		r.StoredAt = s.clock.Now()
		s.records[key] = r
	}
}

// Get returns the record for key, if present. The returned Value is a copy:
// Put copies on write and Get copies on read, so a caller mutating the
// bytes it received can never corrupt the stored record (the aliasing bug
// this guards against let one widget's in-place JSON patching poison every
// later cache read of the same route).
func (s *Store) Get(key string) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.records[key]
	if !ok {
		return Record{}, false
	}
	cp := make([]byte, len(r.Value))
	copy(cp, r.Value)
	r.Value = cp
	return r, true
}

// Delete removes key.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.records, key)
}

// Keys returns all keys in sorted order (IndexedDB cursors iterate in key
// order).
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.records))
	for k := range s.records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clear removes every record.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = make(map[string]Record)
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// DB is a named collection of object stores, one per browser profile.
type DB struct {
	mu     sync.Mutex
	stores map[string]*Store
	clock  clock.Clock
}

// New returns an empty client cache database. A nil clock uses wall time.
func New(clk clock.Clock) *DB {
	if clk == nil {
		clk = clock.Real{}
	}
	return &DB{stores: make(map[string]*Store), clock: clk}
}

// ObjectStore returns the named store, creating it on first use (IndexedDB
// creates stores during the versionchange transaction; one lazy step here).
func (db *DB) ObjectStore(name string) *Store {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.stores[name]
	if !ok {
		s = &Store{name: name, records: make(map[string]Record), clock: db.clock}
		db.stores[name] = s
	}
	return s
}

// FetchSource says where a Fetch result came from.
type FetchSource string

// Fetch sources.
const (
	SourceFresh       FetchSource = "cache-fresh" // served from cache, no network
	SourceStale       FetchSource = "cache-stale" // cached copy was shown, then refreshed
	SourceNetwork     FetchSource = "network"     // no cached copy; network blocked first paint
	SourceRevalidated FetchSource = "revalidated" // cached copy confirmed current via 304
)

// FetchResult reports what Fetch did.
type FetchResult struct {
	Value []byte
	// FirstPaint is the payload the user saw immediately: the cached bytes
	// when any existed, otherwise the network response.
	FirstPaint []byte
	Source     FetchSource
	CachedAge  time.Duration // age of the cached copy at fetch time, if any
	// StaleFallback reports that the refresh failed and the stale cached
	// copy was served instead — degraded mode as the client observes it,
	// regardless of whether the server ever marked anything degraded.
	StaleFallback bool
}

// Fetch implements the dashboard frontend's cache policy for one API route:
//
//   - cached and younger than maxAge: return it, no network call;
//   - cached but stale: the cached copy is the instant first paint, the
//     fetch function refreshes the record, and the fresh bytes are returned;
//   - missing: the fetch function runs and its response is both first paint
//     and stored value.
//
// A fetch error with a stale copy available degrades gracefully to the stale
// copy (the dashboard keeps showing old data rather than breaking — the
// paper's modularity goal that one failing source must not take down the
// page).
func (s *Store) Fetch(key string, maxAge time.Duration, fetch func() ([]byte, error)) (FetchResult, error) {
	return s.FetchTagged(key, maxAge, func(string) ([]byte, string, error) {
		body, err := fetch()
		return body, "", err
	})
}

// FetchTagged is Fetch with conditional-request support: the fetch function
// receives the cached record's entity tag (empty when none) to send as
// If-None-Match, and returns the response body plus the new tag. Returning
// ErrNotModified means the server answered 304 — the cached copy is
// re-stamped fresh and served without a body transfer (SourceRevalidated).
func (s *Store) FetchTagged(key string, maxAge time.Duration, fetch func(etag string) ([]byte, string, error)) (FetchResult, error) {
	now := s.clock.Now()
	rec, ok := s.Get(key)
	if ok && rec.Age(now) <= maxAge {
		return FetchResult{Value: rec.Value, FirstPaint: rec.Value, Source: SourceFresh, CachedAge: rec.Age(now)}, nil
	}
	fresh, etag, err := fetch(rec.ETag)
	if errors.Is(err, ErrNotModified) && ok {
		s.Touch(key)
		return FetchResult{Value: rec.Value, FirstPaint: rec.Value, Source: SourceRevalidated, CachedAge: rec.Age(now)}, nil
	}
	if err != nil {
		if ok {
			return FetchResult{Value: rec.Value, FirstPaint: rec.Value, Source: SourceStale,
				CachedAge: rec.Age(now), StaleFallback: true}, nil
		}
		return FetchResult{}, fmt.Errorf("clientcache: fetch %s/%s: %w", s.name, key, err)
	}
	s.PutTagged(key, fresh, etag)
	res := FetchResult{Value: fresh, Source: SourceNetwork}
	if ok {
		res.FirstPaint = rec.Value
		res.Source = SourceStale
		res.CachedAge = rec.Age(now)
	} else {
		res.FirstPaint = fresh
	}
	return res, nil
}
