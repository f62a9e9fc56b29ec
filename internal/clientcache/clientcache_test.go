package clientcache

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ooddash/internal/clock"
)

func newTestClock() *clock.Sim { return clock.NewSim(time.Unix(1_000_000, 0)) }

func TestPutGet(t *testing.T) {
	db := New(newTestClock())
	s := db.ObjectStore("api")
	s.Put("recent_jobs", []byte(`{"jobs":[]}`))
	rec, ok := s.Get("recent_jobs")
	if !ok || string(rec.Value) != `{"jobs":[]}` {
		t.Fatalf("Get = %+v, %v", rec, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get of missing key returned ok")
	}
}

func TestPutCopiesValue(t *testing.T) {
	db := New(newTestClock())
	s := db.ObjectStore("api")
	buf := []byte("original")
	s.Put("k", buf)
	buf[0] = 'X'
	rec, _ := s.Get("k")
	if string(rec.Value) != "original" {
		t.Fatal("Put aliased caller's slice")
	}
}

func TestObjectStoreReuse(t *testing.T) {
	db := New(newTestClock())
	a := db.ObjectStore("api")
	b := db.ObjectStore("api")
	if a != b {
		t.Fatal("ObjectStore returned different instances for same name")
	}
	if db.ObjectStore("other") == a {
		t.Fatal("distinct names share a store")
	}
}

func TestKeysSorted(t *testing.T) {
	db := New(newTestClock())
	s := db.ObjectStore("api")
	for _, k := range []string{"zeta", "alpha", "mid"} {
		s.Put(k, nil)
	}
	want := []string{"alpha", "mid", "zeta"}
	if got := s.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
}

func TestDeleteAndClear(t *testing.T) {
	db := New(newTestClock())
	s := db.ObjectStore("api")
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear left records")
	}
}

func TestFetchFreshServesCacheWithoutNetwork(t *testing.T) {
	clock := newTestClock()
	db := New(clock)
	s := db.ObjectStore("api")
	s.Put("k", []byte("cached"))
	clock.Advance(10 * time.Second)

	res, err := s.Fetch("k", 30*time.Second, func() ([]byte, error) {
		t.Fatal("network fetch called for fresh entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceFresh || string(res.Value) != "cached" {
		t.Fatalf("res = %+v", res)
	}
	if res.CachedAge != 10*time.Second {
		t.Fatalf("age = %v", res.CachedAge)
	}
}

func TestFetchStaleShowsCachedThenRefreshes(t *testing.T) {
	clock := newTestClock()
	db := New(clock)
	s := db.ObjectStore("api")
	s.Put("k", []byte("old"))
	clock.Advance(time.Minute)

	res, err := s.Fetch("k", 30*time.Second, func() ([]byte, error) {
		return []byte("new"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceStale {
		t.Fatalf("source = %s", res.Source)
	}
	if string(res.FirstPaint) != "old" || string(res.Value) != "new" {
		t.Fatalf("firstPaint=%q value=%q", res.FirstPaint, res.Value)
	}
	rec, _ := s.Get("k")
	if string(rec.Value) != "new" {
		t.Fatal("refresh not stored")
	}
}

func TestFetchMissGoesToNetwork(t *testing.T) {
	db := New(newTestClock())
	s := db.ObjectStore("api")
	res, err := s.Fetch("k", time.Minute, func() ([]byte, error) {
		return []byte("net"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceNetwork || string(res.FirstPaint) != "net" {
		t.Fatalf("res = %+v", res)
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("network response not cached")
	}
}

func TestFetchErrorFallsBackToStale(t *testing.T) {
	clock := newTestClock()
	db := New(clock)
	s := db.ObjectStore("api")
	s.Put("k", []byte("stale-but-usable"))
	clock.Advance(time.Hour)

	res, err := s.Fetch("k", time.Minute, func() ([]byte, error) {
		return nil, errors.New("backend down")
	})
	if err != nil {
		t.Fatalf("stale fallback should not error: %v", err)
	}
	if string(res.Value) != "stale-but-usable" || res.Source != SourceStale {
		t.Fatalf("res = %+v", res)
	}
}

func TestFetchErrorWithNoCacheFails(t *testing.T) {
	db := New(newTestClock())
	s := db.ObjectStore("api")
	_, err := s.Fetch("k", time.Minute, func() ([]byte, error) {
		return nil, errors.New("backend down")
	})
	if err == nil {
		t.Fatal("expected error when no cached copy exists")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New(nil)
	s := db.ObjectStore("api")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%4)
			for j := 0; j < 100; j++ {
				s.Put(key, bytes.Repeat([]byte{byte(i)}, 16))
				s.Get(key)
				s.Keys()
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
}

// Property: Fetch's source classification follows the age/maxAge relation
// exactly — fresh when age <= maxAge, stale paint + refresh otherwise,
// network only when the record is missing.
func TestFetchPolicyProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		clock := newTestClock()
		db := New(clock)
		s := db.ObjectStore("api")
		hasRecord := seed%3 != 0
		ageSecs := (seed * 7) % 120
		maxAge := 60 * time.Second
		if hasRecord {
			s.Put("k", []byte("old"))
			clock.Advance(time.Duration(ageSecs) * time.Second)
		}
		fetched := false
		res, err := s.Fetch("k", maxAge, func() ([]byte, error) {
			fetched = true
			return []byte("new"), nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		switch {
		case hasRecord && time.Duration(ageSecs)*time.Second <= maxAge:
			if res.Source != SourceFresh || fetched {
				t.Fatalf("seed %d: want fresh, got %s fetched=%v", seed, res.Source, fetched)
			}
		case hasRecord:
			if res.Source != SourceStale || !fetched || string(res.FirstPaint) != "old" {
				t.Fatalf("seed %d: want stale, got %s fetched=%v", seed, res.Source, fetched)
			}
		default:
			if res.Source != SourceNetwork || !fetched {
				t.Fatalf("seed %d: want network, got %s fetched=%v", seed, res.Source, fetched)
			}
		}
	}
}

// TestGetReturnsCopy is the regression test for the read-aliasing bug: Get
// (and therefore Fetch, which serves cached bytes through it) used to
// return the map's Record.Value slice directly, so a caller mutating the
// returned bytes corrupted the cached record for every later reader.
func TestGetReturnsCopy(t *testing.T) {
	db := New(newTestClock())
	s := db.ObjectStore("api")
	s.Put("storage", []byte(`{"dirs":[1,2,3]}`))

	rec, ok := s.Get("storage")
	if !ok {
		t.Fatal("record missing")
	}
	for i := range rec.Value {
		rec.Value[i] = 'X' // simulate a widget patching its payload in place
	}
	again, _ := s.Get("storage")
	if string(again.Value) != `{"dirs":[1,2,3]}` {
		t.Fatalf("cached record corrupted by caller mutation: %q", again.Value)
	}
}

// TestFetchReturnsCopy covers the same aliasing through Fetch's cache-hit
// and degraded (stale-after-error) paths.
func TestFetchReturnsCopy(t *testing.T) {
	clock := newTestClock()
	db := New(clock)
	s := db.ObjectStore("api")
	s.Put("jobs", []byte(`original`))

	// Fresh hit: no network, returned bytes must be a private copy.
	res, err := s.Fetch("jobs", time.Minute, func() ([]byte, error) {
		t.Fatal("fetch must not run on a fresh hit")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Value {
		res.Value[i] = 'Y'
	}

	// Stale + fetch error: the degraded fallback serves the cached copy,
	// which must also be private.
	clock.Advance(2 * time.Minute)
	res, err = s.Fetch("jobs", time.Minute, func() ([]byte, error) {
		return nil, errors.New("source down")
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "original" {
		t.Fatalf("degraded fetch served corrupted bytes: %q", res.Value)
	}
	for i := range res.FirstPaint {
		res.FirstPaint[i] = 'Z'
	}
	rec, _ := s.Get("jobs")
	if string(rec.Value) != "original" {
		t.Fatalf("cached record corrupted: %q", rec.Value)
	}
}

func TestFetchTaggedRevalidates(t *testing.T) {
	clock := newTestClock()
	db := New(clock)
	s := db.ObjectStore("api")

	// Cold: fetch stores the body with its tag.
	calls := 0
	fetch := func(etag string) ([]byte, string, error) {
		calls++
		if etag == `"v1"` {
			return nil, etag, ErrNotModified
		}
		return []byte(`{"a":1}`), `"v1"`, nil
	}
	res, err := s.FetchTagged("w", 30*time.Second, fetch)
	if err != nil || res.Source != SourceNetwork {
		t.Fatalf("cold: %+v err=%v", res, err)
	}
	if rec, _ := s.Get("w"); rec.ETag != `"v1"` {
		t.Fatalf("stored ETag = %q", rec.ETag)
	}

	// Stale with matching tag: 304 path re-stamps the record fresh.
	clock.Advance(time.Minute)
	res, err = s.FetchTagged("w", 30*time.Second, fetch)
	if err != nil || res.Source != SourceRevalidated || string(res.Value) != `{"a":1}` {
		t.Fatalf("revalidate: %+v err=%v", res, err)
	}
	if res.StaleFallback {
		t.Fatal("revalidation marked StaleFallback")
	}

	// The Touch made it fresh again: no network call within the TTL.
	before := calls
	res, _ = s.FetchTagged("w", 30*time.Second, fetch)
	if res.Source != SourceFresh || calls != before {
		t.Fatalf("post-revalidation fetch went to network: %+v calls=%d", res, calls)
	}
}

func TestFetchTaggedErrorFallsBackStale(t *testing.T) {
	clock := newTestClock()
	db := New(clock)
	s := db.ObjectStore("api")
	s.PutTagged("w", []byte(`{"a":1}`), `"v1"`)
	clock.Advance(time.Minute)
	res, err := s.FetchTagged("w", 30*time.Second, func(string) ([]byte, string, error) {
		return nil, "", errors.New("down")
	})
	if err != nil || res.Source != SourceStale || !res.StaleFallback {
		t.Fatalf("fallback: %+v err=%v", res, err)
	}
	// ErrNotModified with no cached copy is a real error, not a revalidation.
	if _, err := s.FetchTagged("missing", time.Second, func(string) ([]byte, string, error) {
		return nil, "", ErrNotModified
	}); err == nil {
		t.Fatal("ErrNotModified without a cached record succeeded")
	}
}
