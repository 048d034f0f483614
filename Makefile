# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: all build vet test bench bench-smoke bench-baseline bench-compare fmt-check lint region-artifacts bccd service-smoke service-chaos

all: build vet test lint

fmt-check:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then echo "files need gofmt -s:"; echo "$$out"; exit 1; fi

# lint runs the project's own invariant analyzers (cmd/bcclint: detrand,
# noalloc, ctxflow, atomicwrite, errwrap, cachekey — see doc.go "Static
# analysis").
# staticcheck and govulncheck ride along when installed; CI pins their
# versions and always runs them, so locally they are best-effort extras
# rather than a hard dependency of the target.
lint:
	go run ./cmd/bcclint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck -checks 'SA*' ./...; else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping (CI runs it pinned)"; fi

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# bench writes the current performance ledger (compare against
# BENCH_baseline.json; see doc.go "Performance and profiling").
bench:
	./scripts/bench.sh BENCH_after.json

# bench-smoke is the fast CI pass: every benchmark once, no ledger.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# bench-baseline refreshes the baseline ledger. Only meaningful on the
# first buildable revision (or after intentionally rebaselining).
bench-baseline:
	./scripts/bench.sh BENCH_baseline.json

# bench-compare is the local perf gate: a short ledger run compared against
# the committed BENCH_after.json (same gate script CI's bench-gate job runs,
# with the stricter same-machine threshold).
bench-compare:
	./scripts/bench.sh BENCH_ci.json 50x 3x
	./scripts/bench_compare.sh BENCH_after.json BENCH_ci.json 1.25

# bccd builds the crash-safe job daemon (see doc.go "Running bccd").
bccd:
	go build -o bccd ./cmd/bccd

# service-smoke runs a quick end-to-end bccd lifecycle: start, submit a
# small sweep job, wait, fetch the CSV, SIGTERM-drain.
service-smoke:
	./scripts/service_smoke.sh

# service-chaos is the kill -9 recovery gate CI runs: a ~30k-point sweep
# job SIGKILLed and restarted until done, recovered results byte-identical
# to an uninterrupted run's.
service-chaos:
	./scripts/service_chaos.sh

# region-artifacts writes the canonical text+CSV artifacts of the region
# figures (both Fig 4 power levels) under artifacts/, through the same
# pipeline the golden-file tests pin (quick=false, publication resolution).
region-artifacts:
	go run ./cmd/bcc run fig4a -artifacts artifacts
	go run ./cmd/bcc run fig4b -artifacts artifacts
