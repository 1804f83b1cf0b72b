# Developer entry points for the CAB reproduction. `make test` is the
# tier-1 gate; `make race` covers the concurrent runtime under the race
# detector; `make test-cpu` reruns the concurrent packages at 1, 2 and 4
# Ps; `make lint` machine-checks the runtime's concurrency and
# hot-path invariants with cablint (see internal/lint); `make check` is
# the full pre-merge sweep; `make bench` runs the fast-path
# microbenchmarks and writes BENCH_rt.json (see scripts/bench.sh) so PRs
# can track the perf trajectory.

GO ?= go

.PHONY: all build test test-cpu race vet lint lint-fix-fixtures check bench bench-check

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrent packages at several GOMAXPROCS values: ordering bugs
# between a published pointer and its readers show only when workers
# really run in parallel, whatever the host's core count.
CONCURRENT = ./internal/rt ./internal/jobs ./internal/par ./internal/deque ./internal/park ./cmd/cabserve

test-cpu:
	$(GO) test -count=1 -cpu 1,2,4 $(CONCURRENT)

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bin/cablint: $(wildcard cmd/cablint/*.go internal/lint/*.go)
	$(GO) build -o bin/cablint ./cmd/cablint

lint: bin/cablint
	$(GO) vet -vettool=$(CURDIR)/bin/cablint ./...

# Regenerate the lint fixtures' expectations from actual analyzer
# output after an intentional diagnostic-message change: `// want`
# comments are rewritten verbatim-quoted, and the CFG golden file is
# re-rendered. Review the diff — this records current behavior.
lint-fix-fixtures:
	CABLINT_FIXWANT=1 $(GO) test ./internal/lint/...

check: build vet lint test test-cpu

bench:
	./scripts/bench.sh

# Regression gate: re-measure and fail on >25% regression in the headline
# numbers (SpawnSync ns/op, JobThroughput jobs/sec) vs committed BENCH_rt.json.
bench-check:
	./scripts/bench.sh --check
