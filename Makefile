# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: check fmt test vet test-race race drills fuzz perfbench bench bench-go harness run verify

check: fmt test vet test-race drills fuzz perfbench  ## the default CI gate: formatting + build + tests + vet + race detector + chaos drills + fuzzing + benchmark module

fmt:             ## fail if gofmt would change any file
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

drills:          ## fast chaos-drill smoke under -race: every catalog scenario, unit drills, the fleet's shared-tier tests and the SSE stream tests
	go test -race -run 'Drill|Peer|SSE|Shared|Join|PollsWhileTicking|EventStream' -count=1 ./internal/slurm/ ./internal/core/ ./internal/chaos/ ./internal/fleet/ ./internal/push/

fuzz:            ## fuzz the history range parser, rollup bucket selection (FuzzPickResolution), request identity and share keys, the live-queue parsers (squeue, scontrol show assoc), the scontrol show node|job|reservation blocks (FuzzParseScontrolBlocks), the sacct parser, the sreport rollup parser (FuzzSreportRollup), Slurm's duration, memory and time fields, the REST accounting and jobs decoders (FuzzRESTAccountingDecode, FuzzRESTJobsDecode), the SSE decoder, If-None-Match matching and the SLO config parser for a bounded time each (native go test fuzzing)
	go test -run '^$$' -fuzz '^FuzzParseTimeRange$$' -fuzztime 10s ./internal/core/
	go test -run '^$$' -fuzz '^FuzzPickResolution$$' -fuzztime 10s ./internal/core/
	go test -run '^$$' -fuzz '^FuzzFromRequest$$' -fuzztime 10s ./internal/core/
	go test -run '^$$' -fuzz '^FuzzParseSqueueOutput$$' -fuzztime 10s ./internal/slurmcli/
	go test -run '^$$' -fuzz '^FuzzParseAssocs$$' -fuzztime 10s ./internal/slurmcli/
	go test -run '^$$' -fuzz '^FuzzParseScontrolBlocks$$' -fuzztime 10s ./internal/slurmcli/
	go test -run '^$$' -fuzz '^FuzzParseSacctOutput$$' -fuzztime 10s ./internal/slurmcli/
	go test -run '^$$' -fuzz '^FuzzSreportRollup$$' -fuzztime 10s ./internal/slurmcli/
	go test -run '^$$' -fuzz '^FuzzParseDuration$$' -fuzztime 10s ./internal/slurmcli/
	go test -run '^$$' -fuzz '^FuzzParseMem$$' -fuzztime 10s ./internal/slurmcli/
	go test -run '^$$' -fuzz '^FuzzParseTime$$' -fuzztime 10s ./internal/slurmcli/
	go test -run '^$$' -fuzz '^FuzzRESTAccountingDecode$$' -fuzztime 10s ./internal/slurmrest/
	go test -run '^$$' -fuzz '^FuzzRESTJobsDecode$$' -fuzztime 10s ./internal/slurmrest/
	go test -run '^$$' -fuzz '^FuzzSSEDecoder$$' -fuzztime 10s ./internal/push/
	go test -run '^$$' -fuzz '^FuzzETagMatch$$' -fuzztime 10s ./internal/etag/
	go test -run '^$$' -fuzz '^FuzzParseConfig$$' -fuzztime 10s ./internal/slo/

test:            ## full test suite, including the scale, hot-path, fleet, REST, rollup and chaos gates
	go build ./... && go test ./...

vet:             ## static analysis
	go vet ./...

test-race:       ## test suite under the race detector (the wall-clock and allocation gates build without -race)
	go test -race ./...

race: test-race  ## alias for test-race

perfbench:       ## the benchmark module vets and tests clean (the root build skips nested modules)
	cd perfbench && go vet ./... && go test ./...

bench:           ## page-load benchmark at seed 1 on each BENCHMARK.json workload (perfbench/README.md)
	for w in homepage history fleet; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

bench-go:        ## every Go benchmark (one per paper table/figure + package benches)
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

harness:         ## regenerate every paper artifact (EXPERIMENTS.md numbers)
	go run ./cmd/benchharness

run:             ## live dashboard on :8080 over a small simulated cluster
	go run ./cmd/dashboard -small

verify: test     ## CI-style: tests + recorded outputs
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
