GO ?= go

.PHONY: build test verify race lint bench bench-report bench-solvers bench-solvers-baseline bench-simscale bench-simscale-baseline bench-loadtest bench-serve-baseline bench-overload bench-overload-baseline repro frontier soak qcoordd-smoke clean

build:
	$(GO) build ./...

# Tier-1 gate: everything must build and every test must pass.
test: build
	$(GO) test ./...

# Full verification: tier-1 plus static analysis and the race detector.
# The parallel execution layer makes the race pass load-bearing — every
# fan-out (experiments, sweeps, advantage trials, quantum searches) runs
# under it.
verify: build
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -shuffle=on ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# Static analysis matching the CI gate. staticcheck is skipped (with a
# note) when not installed; CI always runs it.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Regenerate BENCH_parallel.json (per-experiment wall times, serial vs
# parallel, plus hot-path allocs/op).
bench-report:
	$(GO) run ./cmd/bench

# Regenerate BENCH_solvers.json: the flat solver kernels (Gray-code
# classical, contiguous-buffer quantum ascent) against the retained
# reference implementations, plus the batched pipeline and cache-hit
# numbers. CI uploads this as an artifact.
bench-solvers:
	$(GO) run ./cmd/bench -solvers -out BENCH_solvers.json

# Refresh the committed benchstat baseline that CI compares against
# (informational, non-blocking). Run on a quiet machine.
bench-solvers-baseline:
	$(GO) test ./internal/games/ -run '^$$' \
		-bench 'BenchmarkClassicalValueKernel|BenchmarkQuantumAscentKernel|BenchmarkSolveBatch' \
		-benchmem -count 6 | tee .github/bench-solvers-baseline.txt

# Regenerate BENCH_simscale.json: scheduler throughput under the hold model
# (heap vs calendar queue at N up to 10⁵ pending events), end-to-end task
# throughput of the cell-sharded simulation, and warm solve-cache lookup
# throughput single-lock vs striped. CI uploads this as an artifact.
bench-simscale:
	$(GO) run ./cmd/bench -simscale

# Refresh the committed engine-benchmark baseline for the informational
# benchstat comparison in CI. Run on a quiet machine.
bench-simscale-baseline:
	$(GO) test ./internal/netsim/ -run '^$$' -bench 'BenchmarkEngine' \
		-benchtime 1000000x -benchmem -count 6 | tee .github/bench-simscale-baseline.txt

# Regenerate BENCH_loadtest.json: the deterministic serving-path load test
# (virtual-time open-loop generator, internal/loadtest), including the
# goodput-vs-offered-load overload curve (-overload, EXPERIMENTS.md E21).
# The report is a pure function of the seed — CI regenerates it and requires
# a byte-for-byte match with the committed copy. Add -loadtest-wall for an
# uncommitted wall-clock section.
bench-loadtest:
	$(GO) run ./cmd/bench -loadtest -overload -out BENCH_loadtest.json

# Admission-path microbenchmarks (gate accept/shed, limiter fast path, EWMA
# update) — the hot-path cost of overload resilience. CI runs these and
# compares against the committed baseline (informational, non-blocking).
bench-overload:
	$(GO) test ./internal/admission/ -run '^$$' \
		-bench 'BenchmarkAdmission|BenchmarkLimiter' \
		-benchmem -count 6 | tee bench-overload-current.txt

# Refresh the committed admission-path baseline for the informational
# benchstat comparison in CI. Run on a quiet machine.
bench-overload-baseline:
	$(GO) test ./internal/admission/ -run '^$$' \
		-bench 'BenchmarkAdmission|BenchmarkLimiter' \
		-benchmem -count 6 | tee .github/bench-overload-baseline.txt

# Refresh the committed serving-path benchmark baseline (in-process decide,
# single-round HTTP, batched HTTP) for the informational benchstat
# comparison in CI. Run on a quiet machine.
bench-serve-baseline:
	$(GO) test ./internal/serve/ -run '^$$' -bench 'BenchmarkDec(ide|ode)' \
		-benchmem -count 6 | tee .github/bench-serve-baseline.txt

repro:
	$(GO) run ./cmd/repro

# Regenerate FRONTIER_advantage.csv: the E20 quantum-vs-classical advantage
# frontier (decision deadline × fiber distance × source visibility). The
# grid is a pure function of the seed — every point simulates on its own
# derived stream — so CI regenerates it at two worker counts and requires a
# byte-for-byte match with the committed copy.
frontier:
	$(GO) run ./cmd/repro -frontier FRONTIER_advantage.csv

# Kill/resume soak: storm the E1–E20 sweep with schedule-drawn kills,
# resume from the crash-safe checkpoint each time, and require the
# converged output to be byte-identical to an uninterrupted run. The log
# lands in soak.log (uploaded as a CI artifact). Short budget by default;
# crank -cycles/-scale for a longer burn.
soak: build
	$(GO) run ./cmd/soak -cycles 3 -scale 0.05 > soak.log 2>&1; s=$$?; cat soak.log; exit $$s

# Serving smoke at full scale: build qcoordd with the race detector, start
# it as a real process, register 64 sessions each scripted with a source
# outage, drive 10k concurrent decisions (every one must succeed), require
# every session to degrade and recover, then SIGTERM and require a clean
# drain — exit 0 and a valid final metrics artifact. The same test runs at
# reduced scale (16×2k) in the plain tier-1 `go test ./...` pass.
qcoordd-smoke: build
	QCOORDD_SMOKE_SESSIONS=64 QCOORDD_SMOKE_DECISIONS=10000 \
		$(GO) test -race -v -timeout 20m -run TestQcoorddSmoke ./cmd/qcoordd/

clean:
	$(GO) clean ./...
