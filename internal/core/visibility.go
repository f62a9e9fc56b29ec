package core

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"ooddash/internal/auth"
)

// Visibility classes join the paper's two §2.4 claims — a user sees only
// their own and their groups' data, and one server cache serves every user
// — in one decision per widget: which callers may share the widget's
// bytes. Each widget-table entry names its class, and the class alone
// decides:
//
//   - the response headers: every class but public declares Vary:
//     X-Remote-User and Cache-Control: private before the handler writes
//     anything, so 200s, 304s, errors, exports and the SSE stream alike stay
//     out of shared caches (see setPrivateCache);
//   - the staff gate: a staff widget answers 403 to anyone but staff
//     before its handler runs (guard, which authenticates every caller);
//   - the render variant: who shares one rendered body and its ETag
//     (serveRendered);
//   - the push source key: who shares one background refresh source
//     (sourceKey).
//
// The history fill key, the render variant and the push source key all
// name a caller through shareKey, so no two of them can disagree about who
// shares what.
type visibility uint8

const (
	// visPublic: cluster-wide data every authenticated caller sees alike.
	// One render serves everyone, and a fronting cache may share it.
	visPublic visibility = iota
	// visStaff: staff only. One render serves every staff member.
	visStaff
	// visGated: one body for every caller an authorization check admits
	// (a job array, an account export). Private, because the check's
	// answer varies per caller.
	visGated
	// visAccountSet: the body depends on the caller's account set, so one
	// render serves each set. A user in no account, or a query that names
	// the viewer (mine=1), renders per user.
	visAccountSet
	// visUser: the body depends on the caller. One render per user.
	visUser
)

// shareSetMark starts every account-set key. FromRequest rejects any name
// holding a control byte, so a set key never equals a user's name.
const shareSetMark = '\x1f'

// shareKey names the callers that see the same account-set data as u: every
// user with u's account set, or u alone when u is in no account (such a user
// sees only their own jobs). auth.Directory keeps accounts sorted, so the
// key does not depend on the order they were registered in. Each account is
// spelled with its length, so distinct sets never share a key whatever
// bytes their names hold.
func shareKey(u *auth.User) string {
	if len(u.Accounts) == 0 {
		return u.Name
	}
	n := 1
	for _, a := range u.Accounts {
		n += len(a) + 4
	}
	b := make([]byte, 1, n)
	b[0] = shareSetMark
	for _, a := range u.Accounts {
		b = strconv.AppendInt(b, int64(len(a)), 10)
		b = append(b, ':')
		b = append(b, a...)
	}
	return string(b)
}

// shareKey returns who shares w's body with u: "" when every caller the
// class admits does, the account-set key, or u's name. mine reports a query
// that names the viewer, which narrows an account-set body to u.
func (w *Widget) shareKey(u *auth.User, mine bool) string {
	switch w.vis {
	case visAccountSet:
		if !mine {
			return shareKey(u)
		}
		return u.Name
	case visUser:
		return u.Name
	}
	return ""
}

// sourceKey is the scheduler and hub key of w's push source for the
// callers with share key k: the widget name when everyone shares it (k is
// ""), "widget:<k>" otherwise.
func (w *Widget) sourceKey(k string) string {
	if k == "" {
		return w.Name
	}
	return w.Name + ":" + k
}

// namesViewer reports whether r's query narrows the body to the viewer
// (mine=1), without parsing an empty query.
func namesViewer(r *http.Request) bool {
	return strings.Contains(r.URL.RawQuery, "mine") && r.URL.Query().Get("mine") == "1"
}

// guard puts w's handler behind what its class requires of every request
// and response: a non-public response is private to its caller before
// anything is written, the caller is authenticated (401 without an
// identity, 403 for an unknown one), and a staff widget serves staff alone.
func (s *Server) guard(w *Widget) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		if w.vis != visPublic {
			setPrivateCache(rw.Header())
		}
		user, err := s.users.FromRequest(r)
		if err == nil && w.vis == visStaff && !user.Admin {
			err = fmt.Errorf("%w: admin access required", errForbidden)
		}
		if err != nil {
			writeError(rw, err)
			return
		}
		w.serve(rw, r, user)
	}
}
