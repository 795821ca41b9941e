GO ?= go

# Pinned staticcheck release used by `make staticcheck` and the CI
# staticcheck job; bump deliberately, in its own commit.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test test-full vet staticcheck sloc bench-module bench bench-scaling bench-kernels bench-sim bench-serve bench-queue bench-speculate bench-projection perfgate golden-update problems cluster docs clean

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

# All paper-reproduction benchmarks, plus the job-service rows — together
# these regenerate every committed BENCH_*.json history (append a row; do
# not overwrite).
bench: bench-sim bench-serve bench-queue bench-speculate
	$(GO) test -bench=. -benchmem .

# Serial-vs-parallel scaling of the hot kernels (hydro sweeps, FFT
# Poisson solve, multigrid) at 1/2/4/NumCPU workers.
bench-scaling:
	$(GO) test -run xxx -bench='Scaling' -benchmem .

# The perfgate-gated kernel set (hydro step, multigrid, FFT, chemistry,
# AMR ghost-zone fill) at 1/2/4/NumCPU workers; the baseline lives in
# BENCH_kernels.json.
bench-kernels:
	$(GO) test -run xxx -bench '^(BenchmarkScalingStep64|BenchmarkScalingMultigrid64|BenchmarkScalingGravityFFT64|BenchmarkChemistry|BenchmarkScalingBoundaryFill)$$' -benchmem .

# Job-service throughput (jobs/sec at 1/2/4 concurrent slots) and the
# cache-hit fast path; the baseline lives in BENCH_sim.json.
bench-sim:
	$(GO) test -run xxx -bench 'Sim(Throughput|CacheHit)' -benchmem ./internal/sim

# Artifact serving throughput (cold/warm/etag304/tiles read regimes of
# one GET through the scheduler handler); the baseline lives in
# BENCH_serve.json.
bench-serve:
	$(GO) test -run xxx -bench 'ServeReads' -benchmem ./internal/sim

# Steady-state dispatch cost of the fair-share QoS queue at 1/4/16
# tenants; the baseline lives in BENCH_queue.json.
bench-queue:
	$(GO) test -run xxx -bench '^BenchmarkSchedulerQoS$$' -benchmem ./internal/sim

# Wall time of a staggered-arrival sweep with speculative pre-warming
# off vs on (the enzobatch -server -stagger pattern); the baseline
# lives in BENCH_speculate.json.
bench-speculate:
	$(GO) test -run xxx -bench '^BenchmarkSpeculativeSweep$$' -benchmem ./internal/sim

# The sample-lattice kernels: the projection (SurfaceDensity) at 1/2/4/NumCPU
# workers — baseline in BENCH_projection.json — and a 256-px slice (ungated).
bench-projection:
	$(GO) test -run xxx -bench '^(BenchmarkProjection|BenchmarkSlice)$$' -benchmem .

# CI performance-regression gate: re-run the gated benchmarks and compare
# ns/op against the latest row of each committed BENCH_*.json history
# (±15% by default). PERFGATE_FLAGS widens the tolerance on noisy shared
# runners, e.g. PERFGATE_FLAGS='-tol 0.25'.
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

clean:
	$(GO) clean ./...
	rm -rf bin
