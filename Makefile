# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: check test vet test-race race bench bench-go bench-push bench-hotpath bench-chaos bench-rest bench-fleet bench-rollup bench-slo drills harness run verify

check: test vet test-race drills  ## the default CI gate: build + tests + vet + race detector + chaos drills

drills:          ## fast chaos-drill smoke: every catalog scenario + unit drills under -race
	go test -race -run Drill -count=1 ./internal/slurm/ ./internal/core/ ./internal/chaos/ ./internal/fleet/

test:            ## full test suite
	go build ./... && go test ./...

vet:             ## static analysis
	go vet ./...

test-race:       ## test suite under the race detector
	go test -race ./...

race: test-race  ## alias for test-race

bench: check     ## CI gate + loadgen smoke on the simulated clock -> BENCH_latency.json
	go run ./cmd/loadgen -smoke -users 25 -rounds 8 -interval 5s \
		-max-error-rate 0 -bench-out BENCH_latency.json

bench-go:        ## every Go benchmark (one per paper table/figure + package benches)
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

bench-push:      ## polling vs SSE upstream-RPC comparison -> BENCH_push.json
	go run ./cmd/loadgen -sse -users 50 -rounds 6 -interval 75s \
		-max-sse-rpc-ratio 2 -bench-out BENCH_push.json

bench-hotpath: check  ## encode-once vs re-encode hit path -> BENCH_hotpath.json (gated)
	go run ./cmd/loadgen -hotpath -hotpath-requests 28000 \
		-min-hotpath-alloc-ratio 5 -max-trace-allocs 3 -bench-out BENCH_hotpath.json

bench-chaos: drills  ## full chaos catalog under open-loop load, SLO-gated -> BENCH_chaos.json
	go run ./cmd/loadgen -chaos all -arrival-rate 400 -seed 7 \
		-chaos-wall 250ms -fill-cap 24 -bench-out BENCH_chaos.json

bench-rest:      ## CLI vs REST backend A/B + token-scope probes -> BENCH_rest.json (gated)
	go run ./cmd/loadgen -backend-ab -ab-requests 300 \
		-max-rest-p95-ratio 1.5 -bench-out BENCH_rest.json

bench-fleet:     ## 1->4 replica scale-out: RPC flatness + kill drill -> BENCH_fleet.json (gated)
	go run ./cmd/loadgen -fleet -users 50 -fleet-replicas 4 -rounds 6 \
		-interval 75s -max-fleet-rpc-ratio 1.3 -bench-out BENCH_fleet.json

bench-slo:       ## SLI recording allocs/op + chaos alert truth table -> BENCH_slo.json (gated)
	go run ./cmd/loadgen -slo -max-slo-allocs 1 -bench-out BENCH_slo.json

bench-rollup:    ## rollup vs raw-scan latency at 1x/100x/1000x history -> BENCH_rollup.json (gated)
	go run ./cmd/loadgen -rollup -rollup-requests 40 \
		-max-rollup-p95-ratio 1.5 -bench-out BENCH_rollup.json

harness:         ## regenerate every paper artifact (EXPERIMENTS.md numbers)
	go run ./cmd/benchharness

run:             ## live dashboard on :8080 over a small simulated cluster
	go run ./cmd/dashboard -small

verify: test     ## CI-style: tests + recorded outputs
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
