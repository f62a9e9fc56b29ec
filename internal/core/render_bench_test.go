package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
)

// benchServe drives the widget path in-process (no network) and reports
// allocations — the regression numbers the encode-once work is about.
// Tracing is disabled so these benchmarks keep measuring the PR-4 hit path;
// trace_bench_test.go measures the tracing overhead against them.
func benchServe(b *testing.B, path string, renderOff bool, ifNoneMatch bool) {
	benchServeSampled(b, path, renderOff, ifNoneMatch, -1)
}

// benchServeSampled is benchServe with an explicit head-sampling setting
// (-1 tracing off, 0 sampled-out, 1 every request traced).
func benchServeSampled(b *testing.B, path string, renderOff bool, ifNoneMatch bool, sample float64) {
	e := newEnv(b)
	for i := 0; i < 20; i++ {
		e.submit(slurm.SubmitRequest{Name: fmt.Sprintf("j%d", i), User: "alice",
			Account: "lab-a", Partition: "cpu", ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}})
	}
	e.server.SetRenderCacheDisabled(renderOff)
	defer e.server.SetRenderCacheDisabled(false)
	e.server.SetTraceSample(sample)

	req := httptest.NewRequest("GET", path, nil)
	req.Header.Set(auth.UserHeader, "alice")

	// Warm both cache layers and capture the ETag for revalidation mode.
	warm := httptest.NewRecorder()
	e.server.ServeHTTP(warm, req)
	if warm.Code != http.StatusOK {
		b.Fatalf("warm GET %s: status %d: %s", path, warm.Code, warm.Body.String())
	}
	if ifNoneMatch {
		tag := warm.Header().Get("ETag")
		if tag == "" {
			b.Fatalf("GET %s: no ETag to revalidate against", path)
		}
		req.Header.Set("If-None-Match", tag)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := newLoopbackRecorder()
		e.server.ServeHTTP(rec, req)
		want := http.StatusOK
		if ifNoneMatch {
			want = http.StatusNotModified
		}
		if rec.status != want {
			b.Fatalf("GET %s: status %d, want %d", path, rec.status, want)
		}
		rec.release()
	}
}

// BenchmarkWidgetServeEncodeOnce is the materialized hit path: cache hit,
// rendered bytes reused, one Write.
func BenchmarkWidgetServeEncodeOnce(b *testing.B) {
	benchServe(b, "/api/myjobs", false, false)
}

// BenchmarkWidgetServeReencode is the rendered layer's ablation: same cache
// hit, but the payload is rebuilt per request (for My Jobs, spliced again
// from the fill's stored row bytes) and hashed again.
func BenchmarkWidgetServeReencode(b *testing.B) {
	benchServe(b, "/api/myjobs", true, false)
}

// BenchmarkWidgetRevalidate304 is the cheapest possible serve: If-None-Match
// matches the stored ETag, so the response is headers only.
func BenchmarkWidgetRevalidate304(b *testing.B) {
	benchServe(b, "/api/myjobs", false, true)
}

func BenchmarkClusterStatusEncodeOnce(b *testing.B) {
	benchServe(b, "/api/cluster_status", false, false)
}

func BenchmarkClusterStatusReencode(b *testing.B) {
	benchServe(b, "/api/cluster_status", true, false)
}
