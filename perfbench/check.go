package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"ooddash/internal/auth"
)

// checkUsers picks the users whose widgets the output check compares: the
// first two plus three seeded picks.
func (s *sim) checkUsers() []string {
	names := s.env.UserNames
	rng := rand.New(rand.NewSource(int64(len(names))))
	users := []string{names[0], names[1]}
	for i := 0; i < 3; i++ {
		users = append(users, names[rng.Intn(len(names))])
	}
	return users
}

// get serves one widget request for user from h.
func get(h http.Handler, user, path string) (int, []byte, string) {
	req := httptest.NewRequest(http.MethodGet, "http://dashboard.invalid"+path, nil)
	req.Header.Set(auth.UserHeader, user)
	req.Header.Set("Accept", "application/json")
	w := newRespWriter()
	h.ServeHTTP(w, req)
	return w.code(), w.body.Bytes(), w.header.Get("ETag")
}

// checkOutputs runs after timing. The fault-free workloads must have needed
// no retry, short circuit or fill rejection. Then the clock moves past
// every TTL (inside one TTL a peer may serve an older snapshot than its
// owner's cache, by design) and, at that one instant, every fleet replica
// must serve each sampled URL with identical bytes and ETag, and each body
// must equal that of a fresh single-server CLI dashboard built with
// Env.NewServerRunner over the same environment.
func (s *sim) checkOutputs() error {
	sn := s.snapshot(false)
	if sn.retries+sn.shortCircuits+sn.fillRejected > 0 {
		return fmt.Errorf("fault-free run saw %d retries, %d short circuits, %d fill rejections",
			sn.retries, sn.shortCircuits, sn.fillRejected)
	}
	s.env.Clock.Advance(2 * time.Hour) // past every widget TTL
	s.env.Cluster.Ctl.Tick()
	users := s.checkUsers()
	if fl := s.st.fl; fl != nil {
		for _, user := range users {
			for _, path := range s.def.checkPaths {
				var first []byte
				var firstTag string
				for i, id := range fl.Live() {
					code, body, tag := get(fl.Server(id), user, path)
					if code != http.StatusOK {
						return fmt.Errorf("replica %s %s as %s: status %d", id, path, user, code)
					}
					if i == 0 {
						first, firstTag = append([]byte(nil), body...), tag
					} else if !bytes.Equal(body, first) || tag != firstTag {
						return fmt.Errorf("replica %s serves %s as %s differently from %s", id, path, user, fl.Live()[0])
					}
				}
			}
		}
	}

	news := httptest.NewServer(s.env.Feed)
	defer news.Close()
	ref, err := s.env.NewServerRunner(news.URL+"/", dashboardConfig(cliBackend), s.env.Runner)
	if err != nil {
		return fmt.Errorf("reference server: %w", err)
	}
	defer ref.Close()
	compared := 0
	for _, user := range users {
		for _, path := range s.def.checkPaths {
			code, got, _ := get(s.st.handler, user, path)
			refCode, want, _ := get(ref, user, path)
			if code != http.StatusOK || refCode != http.StatusOK {
				return fmt.Errorf("%s as %s: status %d, reference %d", path, user, code, refCode)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s as %s: %d bytes differ from the reference server's %d", path, user, len(got), len(want))
			}
			compared++
		}
	}
	fmt.Printf("output check: %d widget bodies equal a fresh single-server CLI dashboard\n", compared)
	return nil
}
