package slurmrest

import (
	"crypto/subtle"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"ooddash/internal/auth"
)

// Kind classifies a token's principal; the scope matrix keys off it.
type Kind string

const (
	// KindUser is a person: full view of their own jobs, redacted view of
	// everyone else's, no diag.
	KindUser Kind = "user"
	// KindStaff is center staff: every endpoint, every field.
	KindStaff Kind = "staff"
	// KindService is an infrastructure account (monitoring, the dashboard's
	// own poller in service mode): read-only nodes/partitions/diag.
	KindService Kind = "service"
)

// Principal is the resolved identity behind a bearer token.
type Principal struct {
	Kind Kind
	// Name is the username for user/staff tokens, the account label for
	// service tokens.
	Name string
	// User is the directory record backing a user or staff principal; nil
	// for service accounts.
	User *auth.User
}

// TokenStore maps bearer tokens to principals. User and staff tokens are
// resolved through the auth directory at issue time (an Admin user yields a
// staff principal — the REST analogue of the dashboard's staff pages).
type TokenStore struct {
	mu     sync.RWMutex
	tokens map[string]Principal
	dir    *auth.Directory
}

// NewTokenStore returns an empty store resolving user tokens against dir.
func NewTokenStore(dir *auth.Directory) *TokenStore {
	return &TokenStore{tokens: make(map[string]Principal), dir: dir}
}

// IssueUser binds token to the named directory user. Admin users get staff
// scope; everyone else user scope.
func (ts *TokenStore) IssueUser(token, username string) error {
	if token == "" {
		return fmt.Errorf("slurmrest: empty token")
	}
	u, ok := ts.dir.Lookup(username)
	if !ok {
		return fmt.Errorf("slurmrest: unknown user %q", username)
	}
	kind := KindUser
	if u.Admin {
		kind = KindStaff
	}
	ts.mu.Lock()
	ts.tokens[token] = Principal{Kind: kind, Name: u.Name, User: u}
	ts.mu.Unlock()
	return nil
}

// IssueStaff binds token to an all-access staff principal that is not
// backed by a directory user — the analogue of slurmrestd tokens for the
// SlurmUser itself, which trusted infrastructure (the dashboard's poller)
// holds. The dashboard still applies its own per-user ACLs downstream.
func (ts *TokenStore) IssueStaff(token, name string) error {
	if token == "" {
		return fmt.Errorf("slurmrest: empty token")
	}
	ts.mu.Lock()
	ts.tokens[token] = Principal{Kind: KindStaff, Name: name}
	ts.mu.Unlock()
	return nil
}

// IssueService binds token to a read-only service account.
func (ts *TokenStore) IssueService(token, name string) error {
	if token == "" {
		return fmt.Errorf("slurmrest: empty token")
	}
	ts.mu.Lock()
	ts.tokens[token] = Principal{Kind: KindService, Name: name}
	ts.mu.Unlock()
	return nil
}

// Resolve looks a bearer token up. Comparison is constant-time per
// candidate so token length/prefix cannot be probed through timing.
func (ts *TokenStore) Resolve(token string) (Principal, bool) {
	if token == "" {
		return Principal{}, false
	}
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	for t, p := range ts.tokens {
		if len(t) == len(token) && subtle.ConstantTimeCompare([]byte(t), []byte(token)) == 1 {
			return p, true
		}
	}
	return Principal{}, false
}

// FromRequest resolves the request's Authorization: Bearer token, also
// accepting Slurm's own X-SLURM-USER-TOKEN spelling for slurmrestd
// compatibility.
func (ts *TokenStore) FromRequest(r *http.Request) (Principal, bool) {
	tok := r.Header.Get("X-SLURM-USER-TOKEN")
	if tok == "" {
		h := r.Header.Get("Authorization")
		var ok bool
		tok, ok = strings.CutPrefix(h, "Bearer ")
		if !ok {
			return Principal{}, false
		}
	}
	return ts.Resolve(strings.TrimSpace(tok))
}
