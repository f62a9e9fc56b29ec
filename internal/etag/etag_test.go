package etag

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// matchTag and matchCases are TestETagMatch's table; FuzzETagMatch seeds
// from its headers.
const matchTag = `"00000000deadbeef"`

var matchCases = []struct {
	name   string
	header string
	want   bool
}{
	{"empty header", "", false},
	{"exact strong match", matchTag, true},
	{"wildcard", "*", true},
	{"wildcard with whitespace", "  *  ", true},
	{"weak candidate matches strong tag", `W/` + matchTag, true},
	{"weak candidate with surrounding space", ` W/` + matchTag + ` `, true},
	{"second candidate matches", `"other", ` + matchTag, true},
	{"first candidate matches", matchTag + `, "other"`, true},
	{"middle candidate, odd whitespace", `"a" ,   W/` + matchTag + `  ,"b"`, true},
	{"tab-separated candidates", "\"a\",\t" + matchTag, true},
	{"no candidate matches", `"other"`, false},
	{"multiple non-matching candidates", `"a", W/"b", "c"`, false},
	{"candidate is a prefix of the tag", `"00000000deadbee`, false},
	{"candidate is the tag minus quotes", `00000000deadbeef`, false},
	{"tag is a prefix of the candidate", matchTag[:len(matchTag)-1] + `ff"`, false},
	{"empty list elements around a match", `, ` + matchTag + ` ,`, true},
	{"weak marker alone", `W/`, false},
	{"weak marker inside quotes is literal", `"W/00000000deadbeef"`, false},
}

// TestETagMatch locks in the RFC 9110 §13.1.2 weak-comparison semantics
// of If-None-Match evaluation (shared by internal/core and
// internal/slurmrest): W/ prefixes are ignored, candidate lists may carry odd
// whitespace, "*" matches anything, and comparison is whole-tag — a
// candidate that is a mere prefix of the tag must not match.
func TestETagMatch(t *testing.T) {
	for _, c := range matchCases {
		if got := match(c.header, matchTag); got != c.want {
			t.Errorf("%s: match(%q) = %v, want %v", c.name, c.header, got, c.want)
		}
	}
}

// FuzzETagMatch: no header panics match, and a match needs "*" or the tag
// itself in the header. A body's own tag matches alone, with a W/ prefix,
// and anywhere in a candidate list; "*" matches any tag. Seeds are
// TestETagMatch's headers.
func FuzzETagMatch(f *testing.F) {
	for _, c := range matchCases {
		f.Add(c.header, []byte(`{"a":1}`+"\n"))
	}
	f.Fuzz(func(t *testing.T, header string, body []byte) {
		tag := For(body)
		if match(header, tag) && strings.TrimSpace(header) != "*" && !strings.Contains(header, tag) {
			t.Fatalf("match(%q, %s) with neither * nor the tag in the header", header, tag)
		}
		for _, h := range []string{tag, "W/" + tag, " W/" + tag + " ", header + ", " + tag,
			tag + "," + header, header + ",W/" + tag + "," + header, "*", " * "} {
			if !match(h, tag) {
				t.Fatalf("match(%q, %s) = false", h, tag)
			}
		}
	})
}

// TestServe pins the one conditional writer: a 200 carries the tag, the
// given Content-Type and the bytes; a matching If-None-Match gets a bare
// 304 with the ETag; Served reuses the tag a Serve wrote and hashes an
// untagged body; and serving a built Body allocates nothing.
func TestServe(t *testing.T) {
	b := New([]byte(`{"a":1}` + "\n"))
	ct := []string{"application/json"}
	plain := httptest.NewRequest("GET", "/", nil)
	cond := httptest.NewRequest("GET", "/", nil)
	cond.Header.Set("If-None-Match", b.Tag)
	serve := func(r *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		if got := b.Serve(rec, r, ct); got != (r == cond) {
			t.Fatalf("Serve reported 304 = %v", got)
		}
		return rec
	}

	rec := serve(plain)
	if rec.Code != 200 || rec.Body.String() != string(b.Bytes) || rec.Header().Get("Etag") != For(b.Bytes) ||
		rec.Header().Get("Content-Type") != ct[0] {
		t.Fatalf("200: status %d body %q headers %v", rec.Code, rec.Body.String(), rec.Header())
	}
	if got := Served(rec.Header(), rec.Body.Bytes()); got.Tag != b.Tag {
		t.Fatalf("Served tag %s, want the written %s", got.Tag, b.Tag)
	}
	if got := Served(http.Header{}, b.Bytes); got.Tag != For(b.Bytes) {
		t.Fatalf("untagged Served tag %s, want %s", got.Tag, For(b.Bytes))
	}
	if rec := serve(cond); rec.Code != 304 || rec.Body.Len() != 0 || rec.Header().Get("Etag") != b.Tag ||
		rec.Header().Get("Content-Type") != "" {
		t.Fatalf("304: status %d body %q headers %v", rec.Code, rec.Body.String(), rec.Header())
	}

	w := &discardWriter{header: make(http.Header)}
	if n := testing.AllocsPerRun(100, func() { b.Serve(w, plain, ct); b.Serve(w, cond, ct) }); n != 0 {
		t.Fatalf("Serve allocates %.1f times per 200+304 pair, want 0", n)
	}
}

// discardWriter is a reusable ResponseWriter for the allocation check.
type discardWriter struct{ header http.Header }

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

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
