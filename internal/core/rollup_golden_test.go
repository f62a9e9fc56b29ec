package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
	"ooddash/internal/workload"
)

// TestRollupGoldenEquivalence is the rollup≡raw contract: every
// rollup-backed route answers with the same status and bytes from a server
// reading slurmdbd's incremental rollups as from a second server whose
// runner answers every rollup read, bounds included, by folding raw sacct
// rows (core.NewRollupFoldRunner). Any drift means the ingest fold and the
// raw fold disagree on some job. It runs the twelve fixed paths over the
// mixed-history fixture, then a property over generated histories:
// SmallSpec seeds 1–3 plus synthesized records, three users with history
// and one with no terminal job, every route at 24h, 7d, 30d, 90d, 1y and
// all and at custom windows whose edges fall inside a bucket, auto and with
// each explicit bucket where the route takes one.
func TestRollupGoldenEquivalence(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		rolled, fold := core.MixedHistoryPair(t)
		for _, p := range []struct{ user, path string }{
			{"alice", "/api/jobperf/timeseries?range=24h&bucket=hour"},
			{"alice", "/api/jobperf/timeseries?range=24h"},
			{"alice", "/api/jobperf/timeseries?range=7d"},
			{"alice", "/api/jobperf/timeseries?range=all"},
			{"bob", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:30:00Z&to=2026-07-01T10:30:00Z&bucket=hour"},
			{"alice", "/api/jobperf?range=24h"},
			{"bob", "/api/jobperf?range=all"},
			{"carol", "/api/jobperf?range=all"}, // no history: both agree on the empty shape
			{"alice", "/api/usage/cluster?range=7d"},
			{"alice", "/api/usage/cluster?range=1y"},
			{"alice", "/api/usage/accounts?range=90d"},
			{"alice", "/api/usage/efficiency?range=30d"},
		} {
			if status := sameRollupBody(t, rolled, fold, p.user, p.path); status != http.StatusOK {
				t.Errorf("%s as %s: status %d", p.path, p.user, status)
			}
		}
	})

	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := workload.SmallSpec()
			spec.Seed = seed
			env, err := workload.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			env.SynthesizeHistory(0, 1200)
			const idle = "idle001"
			env.Users.AddUser(auth.User{Name: idle, Accounts: env.GroupNames[:1]})
			news := httptest.NewServer(env.Feed)
			defer news.Close()
			newServer := func(fold bool) *core.Server {
				runner := env.Runner
				if fold {
					runner = core.NewRollupFoldRunner(runner)
				}
				s, err := env.NewServerRunner(news.URL, core.Config{}, runner)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				return s
			}
			rolled, fold := newServer(false), newServer(true)

			// Custom windows with edges at odd seconds, so both fall inside
			// a bucket at every resolution: one inside minute retention, one
			// inside hour retention, one reaching back more than a year.
			rng := rand.New(rand.NewSource(seed))
			now := env.Clock.Now().Unix()
			stamp := func(sec int64) string { return time.Unix(sec, 0).UTC().Format(time.RFC3339) }
			windows := []string{"range=24h", "range=7d", "range=30d", "range=90d", "range=1y", "range=all"}
			for _, w := range [][2]int64{{30 * 3600, 2 * 3600}, {40 * 86400, 3 * 86400}, {500 * 86400, 100 * 86400}} {
				from := now - w[0] - 1 - rng.Int63n(3600)
				to := now - w[1] + 1 + rng.Int63n(3600)
				windows = append(windows, "range=custom&from="+stamp(from)+"&to="+stamp(to))
			}
			buckets := []string{"", "&bucket=minute", "&bucket=hour", "&bucket=day"}

			users := []string{env.UserNames[0], env.UserNames[1], env.UserNames[2], idle}
			ok := 0
			check := func(user, path string) {
				if sameRollupBody(t, rolled, fold, user, path) == http.StatusOK {
					ok++
				}
			}
			for _, w := range windows {
				for _, user := range users {
					check(user, "/api/jobperf?"+w)
					for _, b := range buckets {
						check(user, "/api/jobperf/timeseries?"+w+b)
					}
				}
				check(users[0], "/api/usage/accounts?"+w)
				check(users[0], "/api/usage/accounts?"+w+"&top=2")
				for _, b := range buckets {
					check(users[0], "/api/usage/cluster?"+w+b)
					check(users[0], "/api/usage/efficiency?"+w+b)
				}
			}

			// Not vacuous: the users' histories reach the compared bodies.
			var perf core.JobPerfResponse
			if err := json.Unmarshal(serveBody(t, rolled, users[0], "/api/jobperf?range=all"), &perf); err != nil {
				t.Fatal(err)
			}
			if perf.TotalJobs == 0 || ok < 200 {
				t.Fatalf("%s: %d jobs over all history, %d bodies compared with status 200", users[0], perf.TotalJobs, ok)
			}
		})
	}
}

// sameRollupBody GETs path as user from both servers, reports any
// difference in status or body, and returns the rollup server's status.
func sameRollupBody(t *testing.T, rolled, fold *core.Server, user, path string) int {
	t.Helper()
	get := func(s *core.Server) (int, []byte) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set(auth.UserHeader, user)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	rs, rb := get(rolled)
	fs, fb := get(fold)
	if rs != fs || !bytes.Equal(rb, fb) {
		t.Errorf("%s as %s: rollup and raw fold differ\nrollup %d: %.400s\nfold   %d: %.400s", path, user, rs, rb, fs, fb)
	}
	return rs
}
