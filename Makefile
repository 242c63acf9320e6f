GO ?= go

.PHONY: tier1 vet build test bench-smoke bench perf perf-check fuzz-smoke lint soak-smoke server-race bench-check

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

## perf: run sosbench's perf workload table (sweep, lp, cache, race,
## frontier, scale; DESIGN.md §16) and merge the rows into
## BENCH_perf.json. Commit the refreshed file with perf-affecting PRs.
perf:
	$(GO) run ./cmd/sosbench -perf all

## perf-check: re-measure the whole table and fail on any failed bar:
## every row's invariants (frontiers, kernel agreement, cache/race/
## frontier/scale bars), and the sweep and LP rows' p50 against the
## committed BENCH_perf.json (>20% slowdown fails). ~2 min (the CI gate).
perf-check:
	$(GO) run ./cmd/sosbench -perf all -check-baseline

## server-race: the sosd chaos suite — fault injection, hostile clients,
## saturation storms, shutdown under load — under the race detector.
server-race:
	$(GO) test -race -count=1 -timeout 5m ./internal/server ./cmd/sosd

## soak-smoke: sosd under 8 concurrent mixed clients (solves, sweeps,
## malformed bodies, probes) for ~30s, asserting zero 5xx throughout.
## SOSD_SOAK overrides the duration (plain `go test` runs 2s).
soak-smoke:
	SOSD_SOAK=30s $(GO) test -race -count=1 -run 'TestSoakSmoke$$' -v -timeout 5m ./internal/server

## fuzz-smoke: ~90s of coverage-guided fuzzing over the two parsing
## surfaces (spec files and task-graph JSON), the cache's canonical key
## (rename/reorder invariance, no semantic collisions), the cache's
## spill loader (no panics; every restored proof passes its re-check),
## the MILP-vs-combinatorial agreement on random instances (both Optimal
## designs replayed through the simulator) and the entry points'
## agreement (Synthesize, SolveBatch and Frontier answer each cap alike,
## for both engines, raced and not).
## The corpus under testdata/ pins every crasher ever found; plain
## `go test` replays it as seeds.
fuzz-smoke:
	$(GO) test -run NO_TESTS -fuzz 'FuzzSpecfile$$' -fuzztime 15s ./internal/specfile
	$(GO) test -run NO_TESTS -fuzz 'FuzzGraphValidate$$' -fuzztime 15s ./internal/taskgraph
	$(GO) test -run NO_TESTS -fuzz 'FuzzCanonicalKey$$' -fuzztime 15s ./internal/cache
	$(GO) test -run NO_TESTS -fuzz 'FuzzSpillLine$$' -fuzztime 15s ./internal/cache
	$(GO) test -run NO_TESTS -fuzz 'FuzzCrossEngine$$' -fuzztime 15s ./internal/model
	$(GO) test -run NO_TESTS -fuzz 'FuzzEntryPoints$$' -fuzztime 15s .
