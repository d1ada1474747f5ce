GO ?= go

# The whole module runs under the race detector: it is the only enforcement
# of the sharing discipline across harness workers and the placement span
# fork-join (DESIGN.md §8's ledger), so no package is exempt as
# "uninteresting". The DES scheduler starts no goroutine of its own, so one
# pass at the default GOMAXPROCS covers it.
RACE_PKGS = ./...

.PHONY: all build vet lint test race bench-module examples bench-layers ab serve-smoke scale-smoke fuzz-smoke check fmt

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# amrlint: the repo's own static analyzer (cmd/amrlint). Enforces the four
# rules of DESIGN.md §8 (determinism, map order, exhaustive switches, dropped
# errors); any diagnostic fails the build. Waive single sites with
# //lint:ignore <rule> <reason>; the run ends with "amrlint: N live
# waiver(s)" on stderr — the register CHANGES.md quotes (`amrlint -json`
# lists it), which only goes down: 3, all `determinism` — PlacementWall's
# two wall-clock reads and placement's span fork-join (internal/lint
# TestRealModuleClean pins the bound). The nested bench/ module is a second
# run (-C bench), since ./... at the root does not reach it; it carries no
# waivers.
lint:
	$(GO) run ./cmd/amrlint ./...
	$(GO) run ./cmd/amrlint -C bench ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# bench/ is a nested module (the repo benchmark, BENCHMARK.json): the root
# ./... patterns above do not reach it, yet it imports tql, colfile,
# telemetry and the simulator. Vet and test it here so an API break in a
# package it uses fails `make check`, not the benchmark pipeline.
bench-module:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Every examples/ program once, each from a scratch directory (critical-path
# writes critical_path_trace.json into its working directory): `go build
# ./...` only compiles them, so one that panics or exits non-zero fails here.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for dir in examples/*/; do \
		ex=$$(basename $$dir); echo "examples: $$ex"; \
		$(GO) build -o "$$tmp/$$ex" ./$$dir && (cd "$$tmp" && ./$$ex >/dev/null) || exit 1; \
	done

# One iteration of every package-level microbenchmark under internal/ (event
# heap, proc switch, LPT/CDP/CPLX kernels, mesh refine and neighbours, SFC
# encode, colfile write/read, …). One -benchtime=1x sample is not a
# measurement — that is bench/ (BENCHMARK.json) and `make ab`; the target
# exists so every layer benchmark is compiled and executed on every push.
bench-layers:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./internal/...

# Paired A/B of one repo-benchmark workload (BENCHMARK.json) between a base
# revision and the working tree, both measured by the working tree's bench/:
#   make ab OLD=HEAD~1 WORKLOAD=sedov_sweep [PAIRS=10] [SEED=1]
# Alternating pairs, per-metric medians, quartiles and pairs won; fails on a
# result-digest mismatch. This is how a PR's speed claim is produced.
PAIRS ?= 10
SEED ?= 1
ab:
	OLD="$(OLD)" WORKLOAD="$(WORKLOAD)" PAIRS="$(PAIRS)" SEED="$(SEED)" ./scripts/ab.sh

# Live-endpoint smoke: run a short campaign with -serve and scrape
# /metrics + /statusz while it executes; any non-200 response or an empty
# exposition fails the target.
serve-smoke:
	./scripts/serve_smoke.sh

# Distributed-forest smoke at the paper-breaking scale: one 64k-rank driver
# run (plus the 4k/16k lead-ins) with every invariant audit on and a hard
# per-run timeout as the deadlock net. Serial (-j 1) so the peak heap the
# recorder reports is the single-run footprint.
scale-smoke:
	$(GO) run ./cmd/experiments -only scale -paranoid -timeout 20m -j 1

# Fifteen seconds of coverage-guided fuzzing per target (go test takes one
# -fuzz target per invocation): the differential query fuzzer over derived
# tables and chunk sizes, the parser, the colfile reader twice (a file is
# outside input all the way up through the table operators and back out the
# writer), the chunk codec against the buffer-per-column encoder and
# byte-reader decoder it replaced (kept as _test.go oracles), the
# hash-aggregate kernel against its row-loop reference, fed whole and in
# pieces, the DES engine's laned event order against the heap-only order it
# must equal, the sharded scheduler's run merge against sorting the staged
# deliveries, and the MPI match index against a map of FIFOs. `go test`
# alone only replays the seed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzQuery$$' -fuzztime 15s ./internal/tql
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s ./internal/tql
	$(GO) test -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime 15s ./internal/colfile
	$(GO) test -run '^$$' -fuzz '^FuzzReadAll$$' -fuzztime 15s ./internal/colfile
	$(GO) test -run '^$$' -fuzz '^FuzzCodec$$' -fuzztime 15s ./internal/colfile
	$(GO) test -run '^$$' -fuzz '^FuzzGroupBy$$' -fuzztime 15s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzMergeStaged$$' -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzMatchIndex$$' -fuzztime 15s ./internal/mpi

fmt:
	gofmt -l . && test -z "$$(gofmt -l .)"

check: fmt vet lint build test race bench-module examples
