package core

import (
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ooddash/internal/auth"
)

// FuzzFromRequest fuzzes the identity header and the directory behind it,
// since the principal FromRequest resolves picks the share key every
// account-set render, history fill and push source goes by. Properties:
//
//   - no panic on any input;
//   - an accepted name is non-empty, holds no byte below 0x20 and no 0x7f,
//     and is a directory entry with that entry's accounts;
//   - two accepted principals get the same share key exactly when they see
//     the same account-set data: equal account lists, and for users in no
//     account the same user.
//
// The directory holds two users; accounts are newline-separated, so the
// fuzzer reaches account names holding any other byte.
func FuzzFromRequest(f *testing.F) {
	for _, c := range [][5]string{
		{"alice", "alice", "lab-a", "bob", "lab-a\nlab-b"},
		{" bob\t", "alice", "lab-a", "bob", "lab-a\nlab-b"},
		{"ali\x00ce", "ali\x00ce", "", "eve", ""},
		{"carol", "carol", "a,b", "dave", "a\nb"},
		{"5:a", "5:a", "", "x", "a"},
		{"", "frank", "", "gina", "\x1f"},
	} {
		f.Add(c[0], c[1], c[2], c[3], c[4])
	}
	f.Fuzz(func(t *testing.T, header, name1, accounts1, name2, accounts2 string) {
		dir := auth.NewDirectory()
		for _, u := range [][2]string{{name1, accounts1}, {name2, accounts2}} {
			var accounts []string
			if u[1] != "" {
				accounts = strings.Split(u[1], "\n")
			}
			dir.AddUser(auth.User{Name: u[0], Accounts: accounts})
		}
		var accepted []*auth.User
		for _, h := range []string{header, name1, name2} {
			r := httptest.NewRequest("GET", "/api/accounts", nil)
			r.Header[auth.UserHeader] = []string{h}
			u, err := dir.FromRequest(r)
			if err != nil {
				continue
			}
			if u.Name == "" || strings.ContainsFunc(u.Name, func(c rune) bool { return c < 0x20 || c == 0x7f }) {
				t.Fatalf("accepted name %q", u.Name)
			}
			entry, ok := dir.Lookup(u.Name)
			if !ok || !slices.Equal(entry.Accounts, u.Accounts) {
				t.Fatalf("accepted %q, which is no directory entry", u.Name)
			}
			accepted = append(accepted, u)
		}
		for _, a := range accepted {
			for _, b := range accepted {
				same := slices.Equal(a.Accounts, b.Accounts) && (len(a.Accounts) > 0 || a.Name == b.Name)
				if (shareKey(a) == shareKey(b)) != same {
					t.Fatalf("%q %q and %q %q: share keys %q and %q", a.Name, a.Accounts, b.Name, b.Accounts, shareKey(a), shareKey(b))
				}
			}
		}
	})
}
