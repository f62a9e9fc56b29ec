//go:build !race

// The open-loop gate: every catalog scenario replays against a real HTTP
// listener while a pre-scheduled Poisson request storm fires at it. The
// file builds without -race because the gate reads the wall clock, and the
// race detector slows instrumented code unevenly enough to move a p99.
package chaos

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"ooddash/internal/auth"
)

// TestOpenLoopSLOGates runs each scenario at seed 7 with a fill cap of 24.
// Each scripted step advances the simulated clock by the scenario's
// StepEvery while 250 ms of wall time pass, and arrivals come at 400/s.
// Send instants are fixed before the run starts, and latency is measured
// from each request's intended arrival, so a stalled server shows up as
// p99 growth instead of being hidden by coordinated omission. Per
// scenario: p99 within SLO.P99, degraded and rejected (503) rates within
// their SLO bounds, and zero page-level 5xx and transport errors.
func TestOpenLoopSLOGates(t *testing.T) {
	const (
		seed     = 7
		rate     = 400.0 // arrivals per second
		stepWall = 250 * time.Millisecond
		fillCap  = 24
	)
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512},
	}
	t.Cleanup(client.CloseIdleConnections)
	for _, sc := range Catalog() {
		t.Run(sc.Name, func(t *testing.T) {
			// Injected fault latency really stalls requests.
			r, err := NewRun(Options{Seed: seed, FillCap: fillCap, Sleep: time.Sleep})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			srv := httptest.NewServer(r.Server)
			t.Cleanup(srv.Close)
			if sc.Setup != nil { // login-rush draws need the rush cohort
				if err := sc.Setup(r); err != nil {
					t.Fatal(err)
				}
			}

			type arrival struct {
				at         time.Duration
				user, path string
			}
			total := time.Duration(sc.Steps) * stepWall
			rng := rand.New(rand.NewSource(seed))
			var plan []arrival
			for at := time.Duration(0); ; {
				at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
				if at >= total {
					break
				}
				user, path := sc.Draw(r, rng)
				plan = append(plan, arrival{at, user, path})
			}
			if len(plan) == 0 {
				t.Fatal("no arrivals scheduled")
			}

			get := func(user, path string) (status int, degraded bool, err error) {
				req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
				if err != nil {
					return 0, false, err
				}
				req.Header.Set(auth.UserHeader, user)
				resp, err := client.Do(req)
				if err != nil {
					return 0, false, err
				}
				resp.Body.Close()
				return resp.StatusCode, resp.Header.Get("X-OODDash-Degraded") != "", nil
			}
			var (
				mu                                    sync.Mutex
				lats                                  []time.Duration
				degraded, rejected, server5xx, failed int
				wg                                    sync.WaitGroup
			)
			start := time.Now()
			for _, a := range plan {
				wg.Add(1)
				go func() {
					defer wg.Done()
					intended := start.Add(a.at)
					time.Sleep(time.Until(intended))
					status, stale, err := get(a.user, a.path)
					lat := time.Since(intended)
					mu.Lock()
					defer mu.Unlock()
					lats = append(lats, lat)
					switch {
					case err != nil:
						failed++
					case status < 300 && stale:
						degraded++
					case status == http.StatusServiceUnavailable:
						rejected++
					case status >= 500:
						server5xx++
					}
				}()
			}
			// The scripted storm advances in lockstep with the arrival schedule.
			var stepErr error
			for i := 0; i < sc.Steps && stepErr == nil; i++ {
				stepErr = r.Step(sc, i)
				time.Sleep(time.Until(start.Add(time.Duration(i+1) * stepWall)))
			}
			wg.Wait()
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if sc.Verify != nil {
				if err := sc.Verify(r); err != nil {
					t.Fatalf("verify: %v", err)
				}
			}

			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p99 := lats[int(0.99*float64(len(lats)-1))]
			n := float64(len(plan))
			degRate, rejRate := float64(degraded)/n, float64(rejected)/n
			t.Logf("%d arrivals: p99 %v (SLO %v), degraded %.3f (max %.2f), rejected %.3f (max %.2f)",
				len(plan), p99.Round(time.Millisecond), sc.SLO.P99,
				degRate, sc.SLO.MaxDegradedRate, rejRate, sc.SLO.MaxRejectedRate)
			if server5xx > 0 || failed > 0 {
				t.Errorf("%d page-level 5xx and %d transport errors, want 0 and 0", server5xx, failed)
			}
			if p99 > sc.SLO.P99 {
				t.Errorf("open-loop p99 %v exceeds SLO %v", p99, sc.SLO.P99)
			}
			if degRate > sc.SLO.MaxDegradedRate {
				t.Errorf("degraded rate %.3f exceeds SLO %.3f", degRate, sc.SLO.MaxDegradedRate)
			}
			if rejRate > sc.SLO.MaxRejectedRate {
				t.Errorf("rejected rate %.3f exceeds SLO %.3f", rejRate, sc.SLO.MaxRejectedRate)
			}
		})
	}
}
