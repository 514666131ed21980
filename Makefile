GO ?= go

.PHONY: build test race vet fmt check bench bench-diff bench-record explain trend cost paperbench microbench cec sim clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled run of the packages with concurrency (obs registry, sparse
# solver state, charlib worker pool, cec fallback miter workers, the
# per-pass reusable SAT provers of sat/aig and the mapper that runs beside
# them) plus the rest of the tree.
race:
	$(GO) test -race ./internal/obs/... ./internal/linalg/... ./internal/spice/... ./internal/charlib/... ./internal/synth/... ./internal/cec/... ./internal/qor/... ./internal/gsim/... ./internal/sat/... ./internal/aig/... ./internal/mapper/...

# Equivalence-checker suite under the race detector (the parallel fallback
# miter is the flow's most concurrent code path).
cec:
	$(GO) test -race -v ./internal/cec/...

# Gate-level simulator suite (docs/GSIM.md) plus a quick end-to-end run:
# synthesize an EPFL benchmark, simulate it event-driven with annotated
# delays, and report measured-activity power.
sim:
	$(GO) test ./internal/gsim/...
	$(GO) run ./cmd/cryosim -vectors 256 -power epfl:ctrl

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The CI gate: everything that must be green before merging.
check: build vet fmt test race
	@echo "check: OK"

# QoR flight recorder (docs/QOR.md). `make bench` records a fresh smoke run
# and gates it against the committed baseline; `make bench-record` refreshes
# the baseline after an intentional QoR change; `make bench-diff` compares
# the two most recent BENCH_*.json recordings without running the flow.
BENCH_PROFILE ?= smoke
BENCH_REPEAT  ?= 2
BENCH_HISTORY ?= bench/history.jsonl

bench:
	$(GO) run ./cmd/cryobench -profile $(BENCH_PROFILE) -repeat $(BENCH_REPEAT) \
		-history $(BENCH_HISTORY) \
		-out build/BENCH_latest.json -baseline bench/baseline-$(BENCH_PROFILE).json

bench-record:
	$(GO) run ./cmd/cryobench -profile $(BENCH_PROFILE) -repeat $(BENCH_REPEAT) \
		-history $(BENCH_HISTORY) \
		-out bench/baseline-$(BENCH_PROFILE).json

bench-diff:
	@set -- $$(ls -t BENCH_*.json build/BENCH_*.json 2>/dev/null | head -2); \
	if [ $$# -lt 2 ]; then echo "need two BENCH_*.json recordings"; exit 1; fi; \
	echo "diffing $$2 (base) vs $$1 (current)"; \
	$(GO) run ./cmd/cryobench -diff -explain "$$2" "$$1"

# Attribution self-diff smoke (docs/EXPLAIN.md): diffing the committed
# baseline against itself must attribute zero delta.
explain:
	@mkdir -p build
	$(GO) run ./cmd/cryobench -diff -explain \
		-explain-json build/self-explain.json \
		bench/baseline-$(BENCH_PROFILE).json bench/baseline-$(BENCH_PROFILE).json
	@grep -q '"zero_delta": true' build/self-explain.json && \
		echo "explain: self-diff is zero-delta, OK"

# Run-over-run drift table from the metrics history store that `make bench`
# appends to (docs/OBSERVABILITY.md). TREND_GLOB subsets the metrics.
TREND_LAST ?= 8
TREND_GLOB ?= *

trend:
	$(GO) run ./cmd/cryoobs trend -history $(BENCH_HISTORY) \
		-last $(TREND_LAST) -glob '$(TREND_GLOB)'

# Span-scoped cost attribution of a smoke bench run (docs/OBSERVABILITY.md):
# per-stage CPU/alloc/engine-counter tree on stderr, journal + history
# copies under build/ for cryoobs cost.
cost:
	@mkdir -p build
	$(GO) run ./cmd/cryobench -profile $(BENCH_PROFILE) -repeat 1 \
		-out build/BENCH_cost.json \
		-journal build/cost-journal.jsonl -history build/cost-history.jsonl \
		-cost -

# Go microbenchmarks (the paper-benchmark target predating cryobench).
paperbench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# Layer microbenchmarks: linear solver (dense vs sparse, fresh vs refactored
# into reused storage), op point and steady-state transient step (dense vs
# sparse; the step and both refactors must report 0 allocs/op), SAT solver
# and AIG provers (reused encode+solve, Resub, Mfs).
microbench:
	$(GO) test ./internal/linalg ./internal/spice ./internal/sat ./internal/aig -run xxx -bench . -benchmem -benchtime 100x

clean:
	rm -rf build
