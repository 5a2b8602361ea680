GO ?= go

.PHONY: build test verify race lint bench bench-loadtest repro frontier qcoordd-smoke clean

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

# Regenerate BENCH_loadtest.json: the deterministic serving-path load test
# (virtual-time open-loop generator, internal/loadtest) — the E18 traffic
# mixes and the E21 goodput-vs-offered-load curve. The report is a pure
# function of the seed — CI regenerates it at three worker counts and
# requires a byte-for-byte match with the committed copy. Timings are
# benchmark/'s job (bash benchmark/run.sh, declared by BENCHMARK.json).
bench-loadtest:
	$(GO) run ./cmd/repro -serving BENCH_loadtest.json

repro:
	$(GO) run ./cmd/repro

# Regenerate FRONTIER_advantage.csv: the E20 quantum-vs-classical advantage
# frontier (decision deadline × fiber distance × source visibility). The
# grid is a pure function of the seed — every point simulates on its own
# derived stream — so CI regenerates it at three worker counts and requires a
# byte-for-byte match with the committed copy.
frontier:
	$(GO) run ./cmd/repro -frontier FRONTIER_advantage.csv

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
