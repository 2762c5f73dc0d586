# Local targets mirror .github/workflows/ci.yml: `make ci` runs the
# same core steps in the same order as the workflow's checks job
# (staticcheck runs only when the binary is installed; CI installs it).

GO ?= go

.PHONY: all build fmt-check vet staticcheck test race bench-smoke perf perf-gate ci clean

all: build

# The benchmark harness (perfbench/) is its own module, so ./... never
# reaches it even though it imports internal/*; build and vet it
# explicitly. -o /dev/null keeps the harness binary out of the tree.
build:
	$(GO) build ./...
	$(GO) -C perfbench build -o /dev/null ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

staticcheck:
	@if command -v staticcheck >/dev/null; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# The experiments package simulates real report subsets; under -race on
# a small machine that can exceed go test's default 10-minute
# per-package timeout, so raise it (CI's multi-core runners finish well
# inside it either way).
race:
	$(GO) test -race -timeout 1800s ./...

# Short benchmark smoke run: one iteration of a headline figure on the
# small 5-benchmark subset plus the simulator throughput microbenchmark.
# Set MCD_SWEEP_CACHE to a directory to serve warm jobs from the sweep
# result cache (CI does).
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkFigure4|BenchmarkSimulatorThroughput)$$' -benchtime 1x .

# Run every perf scenario and write a machine-readable report (see
# DESIGN.md section 7). cmd/mcdperf builds with the committed PGO
# profile automatically.
perf:
	$(GO) run ./cmd/mcdperf -out BENCH_local.json
	@echo "wrote BENCH_local.json"

# The CI perf gate: measure the bench-smoke scenario and fail on >15%
# regression against the committed baseline.
perf-gate:
	$(GO) run ./cmd/mcdperf -scenarios bench-smoke -compare perf/baseline.json -threshold 0.15

ci: fmt-check vet staticcheck build race bench-smoke

clean:
	$(GO) clean ./...
