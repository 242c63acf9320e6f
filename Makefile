GO ?= go

.PHONY: tier1 vet build test bench-smoke bench perf perf-sweep perf-sweep-check perf-lp perf-lp-check perf-cache perf-cache-check perf-race perf-race-check perf-frontier perf-frontier-check perf-scale fuzz-smoke lint soak-smoke server-race bench-check

## tier1: the gate every change must pass — vet, build, race-enabled
## tests, a one-iteration smoke of the headline benchmark, and a short
## soak of the synthesis service under mixed concurrent traffic.
tier1: vet build test bench-smoke soak-smoke

vet:
	$(GO) vet ./...

## lint: vet plus staticcheck. staticcheck is used when present on PATH
## (CI installs it); locally the target degrades to vet-only with a note
## rather than requiring a network install.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not on PATH; skipped (install: go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

## bench-smoke: single iteration of BenchmarkTable2MILP; catches
## regressions that break the reproduced Table II (the benchmark asserts
## the frontier on every iteration) without a full measurement run.
bench-smoke:
	$(GO) test -run 'NO_TESTS' -bench 'BenchmarkTable2MILP$$' -benchtime 1x .

## bench-check: vet and race-test the benchmark module. bench/ is a Go
## module of its own (bench/go.mod), so the root `go test ./...` skips it
## and a root API change that breaks the benchmark's build would
## otherwise pass. Reads bench/ only (~20 s).
bench-check:
	$(GO) -C bench vet ./... && $(GO) -C bench test -race -count=1 ./...

## bench: the full measurement suite with allocation stats.
bench:
	$(GO) test -run 'NO_TESTS' -bench . -benchmem .

## perf: machine-readable solver-throughput report (BENCH_<date>.json).
perf:
	$(GO) run ./cmd/sosbench -perf

## perf-sweep: sweep-scaling report for the speculative-parallel Pareto
## sweep (DESIGN.md §10) — Table II at 1/2/4 workers, frontier asserted
## identical, written to BENCH_sweep.json.
perf-sweep:
	$(GO) run ./cmd/sosbench -perf-sweep

## perf-sweep-check: re-measure the sweep-scaling workloads and fail on a
## >20% ns/op slowdown against the committed BENCH_sweep.json (CI gate).
perf-sweep-check:
	$(GO) run ./cmd/sosbench -perf-sweep -check-baseline

## perf-lp: LP-kernel throughput report (dense tableau vs sparse revised
## simplex vs sparse+presolve) on pinned workloads, written to
## BENCH_lp.json. Commit the refreshed file with perf-affecting PRs.
perf-lp:
	$(GO) run ./cmd/sosbench -perf-lp

## perf-lp-check: re-measure the pinned LP benchmarks and fail on a >20%
## ns/op slowdown against the committed BENCH_lp.json (the CI perf gate).
perf-lp-check:
	$(GO) run ./cmd/sosbench -perf-lp -check-baseline

## perf-cache: result-cache report — repeat-heavy p50 with/without the
## cache, zero-hit overhead, near-miss warm-start node counts — written
## to BENCH_cache.json.
perf-cache:
	$(GO) run ./cmd/sosbench -perf-cache

## perf-cache-check: re-measure and fail unless the cache holds its
## bars: >=5x repeat-heavy p50, <5% zero-hit overhead, warm starts never
## enlarging the MILP search (the CI cache gate).
perf-cache-check:
	$(GO) run ./cmd/sosbench -perf-cache -check-baseline

## perf-race: engine-portfolio racing report — budget-constrained Table II
## sweep, sequential ladder vs concurrent race on the shared incumbent
## bus — written to BENCH_race.json.
perf-race:
	$(GO) run ./cmd/sosbench -perf-race

## perf-race-check: re-measure and fail unless racing beats the
## sequential ladder's wall-clock AND returns the bit-identical frontier
## (the CI racing gate — invariants, not machine-speed ratchets).
perf-race-check:
	$(GO) run ./cmd/sosbench -perf-race -check-baseline

## perf-frontier: frontier-store report — repeat sweeps of the paper's
## three frontiers through the store vs cold, plus delta-resolve point
## accounting — written to BENCH_frontier.json.
perf-frontier:
	$(GO) run ./cmd/sosbench -perf-frontier

## perf-frontier-check: re-measure and fail unless the store holds its
## bars: >=1000x repeat-sweep p50 on the Example 2 workloads (>=25x on
## the millisecond-scale Table II stream), every cached frontier
## bit-identical to the cold sweep, and delta-resolve solving exactly
## the uncovered points (the CI frontier gate).
perf-frontier-check:
	$(GO) run ./cmd/sosbench -perf-frontier -check-baseline

## perf-scale: large-instance scaling sweep — structured 50-800-subtask
## forced-mapping instances through the sparse MILP stack — written to
## BENCH_scale.json. Reporting only; no gate.
perf-scale:
	$(GO) run ./cmd/sosbench -perf-scale

## server-race: the sosd chaos suite — fault injection, hostile clients,
## saturation storms, shutdown under load — under the race detector.
server-race:
	$(GO) test -race -count=1 -timeout 5m ./internal/server ./cmd/sosd

## soak-smoke: sosd under 8 concurrent mixed clients (solves, sweeps,
## malformed bodies, probes) for ~30s, asserting zero 5xx throughout.
## SOSD_SOAK overrides the duration (plain `go test` runs 2s).
soak-smoke:
	SOSD_SOAK=30s $(GO) test -race -count=1 -run 'TestSoakSmoke$$' -v -timeout 5m ./internal/server

## fuzz-smoke: ~45s of coverage-guided fuzzing over the two parsing
## surfaces (spec files and task-graph JSON) and the cache's canonical
## key (rename/reorder invariance, no semantic collisions). The corpus
## under testdata/ pins every crasher ever found; plain `go test`
## replays it as seeds.
fuzz-smoke:
	$(GO) test -run NO_TESTS -fuzz 'FuzzSpecfile$$' -fuzztime 15s ./internal/specfile
	$(GO) test -run NO_TESTS -fuzz 'FuzzGraphValidate$$' -fuzztime 15s ./internal/taskgraph
	$(GO) test -run NO_TESTS -fuzz 'FuzzCanonicalKey$$' -fuzztime 15s ./internal/cache
