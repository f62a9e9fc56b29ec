package etag

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestETagMatch locks in the RFC 9110 §13.1.2 weak-comparison semantics
// of If-None-Match evaluation (shared by internal/core and
// internal/slurmrest): W/ prefixes are ignored, candidate lists may carry odd
// whitespace, "*" matches anything, and comparison is whole-tag — a
// candidate that is a mere prefix of the tag must not match.
func TestETagMatch(t *testing.T) {
	tag := `"00000000deadbeef"`
	cases := []struct {
		name   string
		header string
		want   bool
	}{
		{"empty header", "", false},
		{"exact strong match", tag, true},
		{"wildcard", "*", true},
		{"wildcard with whitespace", "  *  ", true},
		{"weak candidate matches strong tag", `W/` + tag, true},
		{"weak candidate with surrounding space", ` W/` + tag + ` `, true},
		{"second candidate matches", `"other", ` + tag, true},
		{"first candidate matches", tag + `, "other"`, true},
		{"middle candidate, odd whitespace", `"a" ,   W/` + tag + `  ,"b"`, true},
		{"tab-separated candidates", "\"a\",\t" + tag, true},
		{"no candidate matches", `"other"`, false},
		{"multiple non-matching candidates", `"a", W/"b", "c"`, false},
		{"candidate is a prefix of the tag", `"00000000deadbee`, false},
		{"candidate is the tag minus quotes", `00000000deadbeef`, false},
		{"tag is a prefix of the candidate", tag[:len(tag)-1] + `ff"`, false},
		{"empty list elements around a match", `, ` + tag + ` ,`, true},
		{"weak marker alone", `W/`, false},
		{"weak marker inside quotes is literal", `"W/00000000deadbeef"`, false},
	}
	for _, c := range cases {
		if got := Match(c.header, tag); got != c.want {
			t.Errorf("%s: Match(%q) = %v, want %v", c.name, c.header, got, c.want)
		}
	}
}

// etagForSprintf is the previous For implementation, kept as the
// micro-benchmark baseline: a hash.Hash64 allocation plus two Sprintf
// round-trips per tag.
func etagForSprintf(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("%q", fmt.Sprintf("%016x", h.Sum64()))
}

// TestETagForMatchesLegacy pins the rewritten For to the old
// implementation's exact output, so tags stored by clients before the
// rewrite keep revalidating.
func TestETagForMatchesLegacy(t *testing.T) {
	bodies := [][]byte{
		nil,
		{},
		[]byte("{}"),
		[]byte(`{"jobs":[1,2,3]}` + "\n"),
		[]byte(strings.Repeat("x", 4096)),
	}
	for _, body := range bodies {
		if got, want := For(body), etagForSprintf(body); got != want {
			t.Errorf("For(%d bytes) = %q, legacy = %q", len(body), got, want)
		}
	}
}

func BenchmarkETagFor(b *testing.B) {
	body := []byte(strings.Repeat(`{"jobs":[{"id":1}]}`, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if For(body) == "" {
			b.Fatal("empty tag")
		}
	}
}

func BenchmarkETagForSprintf(b *testing.B) {
	body := []byte(strings.Repeat(`{"jobs":[{"id":1}]}`, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if etagForSprintf(body) == "" {
			b.Fatal("empty tag")
		}
	}
}
