GO ?= go

# Pinned staticcheck release used by `make staticcheck` and the CI
# staticcheck job; bump deliberately, in its own commit.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test test-full vet staticcheck sloc bench-module bench bench-scaling perfgate golden-update problems cluster docs fuzz-smoke clean

build:
	$(GO) build ./...

# Fast gate: reduced problem sizes for the long integration suites.
test:
	$(GO) test -short ./...

# The full suite, including the long-running problem integrations.
test-full:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet, at the pinned version (needs network the
# first time, to fetch the tool into the module cache).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Non-test Go lines per package under internal/ and cmd/, plus a total —
# the count simplicity PRs quote instead of a hand tally. Printed, never
# gated.
sloc:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '%7d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%7d total\n' $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

# bench/ is a module of its own (BENCHMARK.json's harness), so `go build
# ./...` here never compiles it: a sim/costmodel signature change would
# break it only in the pipeline. Vet it and run its tests.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every benchmark of both benchmark packages: the paper's figures, tables
# and ablations, the kernel scaling rows and the job-service rows. For
# numbers to commit use `make perfgate`, which prints a BENCH.json row.
bench:
	$(GO) test -run xxx -bench=. -benchmem . ./internal/sim

# Serial-vs-parallel scaling of the hot kernels (hydro sweeps, FFT
# Poisson solve, multigrid) at 1/2/4/NumCPU workers.
bench-scaling:
	$(GO) test -run xxx -bench='Scaling' -benchmem .

# The performance-regression gate: re-run every benchmark baselined in
# BENCH.json five times and judge the medians against each name's newest
# row — ns/op within ±15% when that row was recorded on this host (not
# judged otherwise), allocs/op exactly on any host — then print the
# measured row, ready to append. PERFGATE_FLAGS passes flags through, e.g.
# PERFGATE_FLAGS='-tol 0.25' or PERFGATE_FLAGS='-only BenchmarkNew' to give
# a new benchmark its first row.
perfgate:
	$(GO) run ./cmd/perfgate $(PERFGATE_FLAGS)

# Regenerate the golden regression hashes after an INTENTIONAL physics
# change (internal/problems/testdata/golden.json is the drift alarm).
golden-update:
	$(GO) test ./internal/problems -run TestGoldenRegression -update

# Smoke-run every registered problem for 2 root steps at 8^3 — the same
# matrix the CI `problems` job drives via `enzogo -list`.
problems:
	@mkdir -p bin
	$(GO) build -o bin/enzogo ./cmd/enzogo
	@bin/enzogo -list | cut -f1 > bin/problems.txt
	@test -s bin/problems.txt || { echo "enzogo -list produced no problems"; exit 1; }
	@while read -r p; do \
		echo "== $$p =="; \
		bin/enzogo -problem $$p -steps 2 -rootn 8 >/dev/null || exit 1; \
	done < bin/problems.txt
	@echo "all registered problems ran clean"

# The distributed acceptance suite the CI cluster job runs: three serve
# peers over real TCP, sharded placement, cross-peer proxying, and
# kill-the-owner checkpoint takeover, all under the race detector.
cluster:
	$(GO) test -race -short -run 'TestCluster' ./internal/sim

# The documentation gate the CI docs job runs: clean gofmt, documented
# exports in every internal package, and README curl examples that
# actually work against a live test server.
docs:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/doccheck $$($(GO) list -f '{{.Dir}}' ./internal/...)
	$(GO) test -run TestReadmeCurlExamples ./internal/sim

# Every committed fuzz target for 15 s each — the CI fuzz job — so a
# decoder regression fails CI instead of only a local -fuzz run. Each run
# starts from the target's seeds and its testdata/fuzz corpus.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzSnapshotRead$$' -fuzztime 15s ./internal/snapshot
	$(GO) test -run xxx -fuzz '^FuzzParseOutputRequest$$' -fuzztime 15s ./internal/analysis
	$(GO) test -run xxx -fuzz '^FuzzParseKnobs$$' -fuzztime 15s ./internal/problems
	$(GO) test -run xxx -fuzz '^FuzzCostEstimate$$' -fuzztime 15s ./internal/sim/costmodel
	$(GO) test -run xxx -fuzz '^FuzzResolveRequest$$' -fuzztime 15s ./internal/sim
	$(GO) test -run xxx -fuzz '^FuzzDiskstoreRecover$$' -fuzztime 15s ./internal/sim/diskstore

clean:
	$(GO) clean ./...
	rm -rf bin
